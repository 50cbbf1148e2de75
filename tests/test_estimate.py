import math

import numpy as np
import pytest

from volhmm.chmm import (
    ClassicalHmm,
    build_classical_hmm,
    log_likelihood_binned,
    log_likelihood_continuous,
    simulate,
)
from volhmm import estimate
from volhmm.errors import NumericalError, ValidationError, ZeroLikelihoodError
from volhmm.estimate import (
    KIND_CIR,
    KIND_NONPARAM,
    KIND_QHMM,
    FitConfig,
    PenaltyConstants,
    classical_batch_objective,
    classical_model_from_theta,
    constraint_penalty,
    default_classical_start,
    fit_classical,
    fit_qhmm,
    free_param_count,
    nelder_mead,
    penalized_select,
    penalty_lambda,
    qhmm_batch_objective,
)
from volhmm.qhmm import AnsatzSpec, build_qhmm, qhmm_sequence_logprob
from volhmm.volgrid import (
    CirParams,
    ObservationScheme,
    SpotGrid,
    TransitionMatrix,
    build_observation_scheme,
    cir_spot_grid,
    cir_transition_matrix,
)

# Direct closed-form evaluation (plain arithmetic, independent of the library).
LAMBDA_1000_4_12 = 22605838470676.047

SP500 = CirParams(2.2, 0.077, 1.1)


def sp500_dgp(n_states=16, k=4, n_obs=4):
    grid = cir_spot_grid(SP500, n_states)
    a_hf = cir_transition_matrix(SP500, grid, 1.0 / k)
    scheme = build_observation_scheme(n_obs, 4.0 * math.sqrt(SP500.beta))
    return build_classical_hmm(grid, a_hf, k, scheme)


class TestNelderMead:
    def test_quadratic(self):
        result = nelder_mead(lambda x: (x[0] - 1.0) ** 2, np.array([0.0]), FitConfig())
        assert result.theta_hat[0] == pytest.approx(1.0, abs=1e-6)

    def test_rosenbrock(self):
        def rosen(x):
            return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2

        cfg = FitConfig(max_iter=5000, ftol=1e-14, xtol=1e-12)
        result = nelder_mead(rosen, np.array([-1.2, 1.0]), cfg)
        assert result.theta_hat == pytest.approx([1.0, 1.0], abs=1e-4)

    def test_descent_property(self, rng):
        def bumpy(x):
            return float(np.sum(x**2) + np.sin(5.0 * x).sum())

        for _ in range(10):
            x0 = rng.normal(size=3)
            result = nelder_mead(bumpy, x0, FitConfig(max_iter=50))
            assert result.nll <= bumpy(x0) + 1e-15

    def test_nonfinite_start_rejected(self):
        with pytest.raises(NumericalError):
            nelder_mead(lambda x: math.inf, np.array([0.0]), FitConfig())

    def test_deterministic(self):
        def f(x):
            return float((x[0] + 2.0) ** 2 + (x[1] - 3.0) ** 4)

        cfg = FitConfig(max_iter=200)
        a = nelder_mead(f, np.array([0.5, 0.5]), cfg)
        b = nelder_mead(f, np.array([0.5, 0.5]), cfg)
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert a.trace == b.trace


class TestConstraintPenalty:
    def test_sp500_preset_parameters_feasible(self):
        assert constraint_penalty(np.array([2.2, 0.077, 1.1]), KIND_CIR, 16) == 0.0

    def test_nonparam_single_value_rows(self):
        assert constraint_penalty(np.array([0.7, 0.4]), KIND_NONPARAM, 2) == 0.0

    def test_negative_cir_barrier(self):
        assert constraint_penalty(np.array([-1.0, 0.1, 1.0]), KIND_CIR, 2) >= 1e8

    def test_nonparam_row_sum_barrier(self):
        theta = np.array([0.6, 0.6, 0.1, 0.1, 0.1, 0.1])  # row 0 sums to 1.3
        assert constraint_penalty(theta, KIND_NONPARAM, 3) >= 1e8

    def test_qhmm_unconstrained(self, rng):
        assert constraint_penalty(rng.normal(size=10) * 100, KIND_QHMM, 2) == 0.0

    def test_zero_exactly_inside_feasible_region(self, rng):
        for _ in range(50):
            theta = rng.uniform(0.01, 3.0, 3)
            assert constraint_penalty(theta, KIND_CIR, 4) == 0.0
            rows = [rng.dirichlet(np.ones(3))[:2] * 0.99 for _ in range(3)]
            theta_np = np.concatenate(rows)
            assert constraint_penalty(theta_np, KIND_NONPARAM, 3) == 0.0


class TestFitClassical:
    def test_cir_fit_dominates_truth_in_sample(self):
        dgp = sp500_dgp()
        _, _, _, symbols = simulate(dgp, 500, seed=31)
        truth = np.array([SP500.alpha, SP500.beta, SP500.sigma])
        cfg = FitConfig(max_iter=30, seed=1, restarts=1)
        result, model = fit_classical(
            symbols, KIND_CIR, 16, 4, dgp.scheme, cfg, theta0=truth
        )
        nll_truth = -log_likelihood_binned(dgp, symbols)
        assert result.nll <= nll_truth + 1e-6
        assert isinstance(model, ClassicalHmm)

    def test_nonparam_dimension(self):
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 80, seed=7)
        cfg = FitConfig(max_iter=3, seed=2, restarts=1)
        result, _ = fit_classical(
            symbols, KIND_NONPARAM, 16, 2, dgp.scheme, cfg,
            grid=cir_spot_grid(SP500, 16),
        )
        assert result.theta_hat.size == 240

    def test_refit_from_optimum_is_fixed_point(self):
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 120, seed=13)
        cfg = FitConfig(max_iter=4000, ftol=1e-7, xtol=1e-8, seed=3, restarts=1)
        first, _ = fit_classical(symbols, KIND_CIR, 4, 2, dgp.scheme, cfg)
        again, _ = fit_classical(
            symbols, KIND_CIR, 4, 2, dgp.scheme, cfg, theta0=first.theta_hat
        )
        assert abs(again.nll - first.nll) < cfg.ftol

    def test_rejects_empty_data(self):
        dgp = sp500_dgp(n_states=4, k=2)
        with pytest.raises(ValidationError):
            fit_classical(np.array([]), KIND_CIR, 4, 2, dgp.scheme, FitConfig())


class TestFitQhmm:
    def test_parameter_count_with_init(self):
        spec = AnsatzSpec(1, 1, reps=3)
        assert spec.n_params == 16
        assert free_param_count(KIND_QHMM, 2, spec) == 17

    def test_uniform_channel_data_reaches_entropy_rate(self):
        # fair-coin data; warm start at the exactly-uniform channel (last layer
        # rotates only the observed qubit by pi/2)
        rng = np.random.default_rng(55)
        data = rng.integers(0, 2, 8000)
        spec = AnsatzSpec(1, 1, reps=3)
        theta0 = np.zeros(1 + spec.n_params)
        theta0[1 + 3 * 4 + 1] = math.pi / 2.0  # last layer, Ry block, qubit 1
        cfg = FitConfig(max_iter=150, seed=5, restarts=1)
        result, model = fit_qhmm(data, spec, cfg, theta0=theta0)
        assert abs(result.nll / data.size - math.log(2.0)) < 1e-3

    def test_fit_improves_on_start(self):
        dgp = sp500_dgp(n_states=4, k=2, n_obs=2)
        _, _, _, symbols = simulate(dgp, 100, seed=17)
        spec = AnsatzSpec(1, 1, reps=2)
        cfg = FitConfig(max_iter=150, seed=9, restarts=2)
        result, _ = fit_qhmm(symbols, spec, cfg)
        assert result.nll <= result.trace[0] + 1e-12

    def test_symbol_range_validated(self):
        spec = AnsatzSpec(1, 1, reps=1)
        with pytest.raises(ValidationError):
            fit_qhmm(np.array([0, 1, 2]), spec, FitConfig())


class TestFitFailures:
    """A fit that never reached a feasible, evaluable point is an error, not a result."""

    def _symbols(self):
        dgp = sp500_dgp(n_states=4, k=2)
        return dgp, simulate(dgp, 60, seed=21)[3]

    def test_negative_symbol_rejected(self):
        dgp, symbols = self._symbols()
        symbols = symbols.copy()
        symbols[5] = -1
        with pytest.raises(ValidationError, match="out of range"):
            fit_classical(
                symbols, KIND_NONPARAM, 4, 2, dgp.scheme, FitConfig(max_iter=5, restarts=1),
                grid=dgp.grid,
            )

    def test_symbol_above_scheme_rejected(self):
        dgp, symbols = self._symbols()
        with pytest.raises(ValidationError, match="out of range"):
            fit_classical(np.append(symbols, 4), KIND_CIR, 4, 2, dgp.scheme, FitConfig(max_iter=5))

    def test_all_evaluations_failing_raises(self, monkeypatch):
        def impossible(steps):
            return np.full(len(steps), -math.inf)  # no model explains the data

        monkeypatch.setattr(estimate, "log_prob", impossible)
        dgp, symbols = self._symbols()
        with pytest.raises(NumericalError, match="feasible"):
            fit_classical(symbols, KIND_CIR, 4, 2, dgp.scheme, FitConfig(max_iter=20, restarts=2))

    def test_barrier_only_fit_raises(self):
        dgp, symbols = self._symbols()
        with pytest.raises(NumericalError, match="feasible"):
            fit_classical(symbols, KIND_CIR, 4, 2, dgp.scheme, FitConfig(max_iter=3, restarts=1),
                          theta0=[-1.0, -0.1, -0.5])

    def test_qhmm_all_evaluations_failing_raises(self, monkeypatch):
        def impossible(steps):
            return np.full(len(steps), -math.inf)  # no model explains the data

        monkeypatch.setattr(estimate, "log_prob", impossible)
        with pytest.raises(NumericalError, match="feasible"):
            fit_qhmm(
                np.array([0, 1, 1, 0]), AnsatzSpec(1, 1, reps=1), FitConfig(max_iter=10, restarts=2)
            )


def scalar_classical_objective(data, kind, n_states, k, scheme, grid=None, data_kind="symbols"):
    """The fit objective of one parameter vector, from the single-model functions."""

    def objective(theta):
        penalty = constraint_penalty(theta, kind, n_states)
        if penalty > 0.0:
            return penalty
        try:
            model = classical_model_from_theta(theta, kind, n_states, k, scheme, grid=grid)
            if data_kind == "symbols":
                return -log_likelihood_binned(model, data)
            return -log_likelihood_continuous(model, data)
        except (ZeroLikelihoodError, NumericalError, ValidationError):
            return 1e12

    return objective


def scalar_qhmm_objective(data, spec):
    def objective(packed):
        try:
            model = build_qhmm(spec, packed[spec.latent_qubits :], packed[: spec.latent_qubits])
            return -qhmm_sequence_logprob(model, data)
        except ZeroLikelihoodError:
            return 1e12

    return objective


class TestLockstepRestarts:
    """Restarts run in lockstep on one batched objective give the floats of sequential runs."""

    def _assert_sequential(self, result, objective, cfg, first_start):
        assert len(result.restarts) == cfg.restarts
        assert np.array_equal(result.restarts[0].start, first_start)
        runs = [nelder_mead(objective, rec.start, cfg) for rec in result.restarts]
        for run, rec in zip(runs, result.restarts):
            assert (rec.nll, rec.iterations, rec.converged) == (
                run.nll, run.iterations, run.converged)
        best = runs[0]
        for run in runs[1:]:
            if run.nll < best.nll:
                best = run
        assert np.array_equal(result.theta_hat, best.theta_hat)
        assert (result.nll, result.iterations, result.converged) == (
            best.nll, best.iterations, best.converged)
        assert result.trace == best.trace
        for count in ("evaluations", "barrier_hits", "sentinel_hits"):
            assert getattr(result, count) == sum(getattr(run, count) for run in runs)

    def test_nonparam(self):
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 60, seed=21)
        cfg = FitConfig(max_iter=80, seed=4, restarts=3)
        result, _ = fit_classical(symbols, KIND_NONPARAM, 4, 2, dgp.scheme, cfg, grid=dgp.grid)
        objective = scalar_classical_objective(symbols, KIND_NONPARAM, 4, 2, dgp.scheme, dgp.grid)
        self._assert_sequential(result, objective, cfg, default_classical_start(KIND_NONPARAM, 4))
        assert result.barrier_hits > 0

    def test_qhmm(self):
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 40, seed=22)
        spec = AnsatzSpec(1, 2, reps=1)
        cfg = FitConfig(max_iter=80, seed=6, restarts=3)
        theta0 = np.linspace(0.1, 2.0, 1 + spec.n_params)
        result, _ = fit_qhmm(symbols, spec, cfg, theta0=theta0)
        self._assert_sequential(result, scalar_qhmm_objective(symbols, spec), cfg, theta0)

    def test_cir_on_returns(self):
        returns = np.random.default_rng(23).normal(0.0, 0.3, 40)
        scheme = build_observation_scheme(4, 1.2)
        cfg = FitConfig(max_iter=20, seed=8, restarts=2)
        result, _ = fit_classical(returns, KIND_CIR, 4, 2, scheme, cfg, data_kind="returns")
        objective = scalar_classical_objective(
            returns, KIND_CIR, 4, 2, scheme, data_kind="returns")
        start = default_classical_start(KIND_CIR, 4, returns, "returns")
        self._assert_sequential(result, objective, cfg, start)


class TestBatchObjective:
    """Each row of a batch gets the value it would get alone, whatever else is in the batch."""

    def test_classical_mixed_batch(self):
        scheme = ObservationScheme(edges=np.array([-0.3, 0.0, 0.3]))
        data = np.array([0, 1, 2, 3, 1, 2, 0, 3, 2, 1])
        rows = np.array([
            [1.0, 0.1, 0.5],  # finite
            [-1.0, 0.1, 0.5],  # barrier: never built
            [1.0, 1.0, 0.002],  # build fails (incomplete gamma does not converge)
            [1.0, 1e-4, 0.01],  # the data have probability zero
            [1.0, 0.1, 0.01],  # finite
        ])
        batch = classical_batch_objective(data, KIND_CIR, 4, 2, scheme)
        scalar = scalar_classical_objective(data, KIND_CIR, 4, 2, scheme)
        values = batch(rows)
        alone = [batch(row[None, :])[0] for row in rows]
        assert values.tolist() == alone == [scalar(row) for row in rows]
        assert values[1] == constraint_penalty(rows[1], KIND_CIR, 4)
        assert values[2] == values[3] == 1e12
        assert values[0] < 1e8 and values[4] < 1e8

    def test_qhmm_mixed_batch(self):
        spec = AnsatzSpec(1, 2, reps=0)
        data = np.array([0, 2, 1, 3, 0])
        rows = np.random.default_rng(24).uniform(0.0, 2.0 * math.pi, (4, 1 + spec.n_params))
        rows[2] = 0.0  # Kraus operators I, 0, 0, 0: only symbol 0 is possible
        batch = qhmm_batch_objective(data, spec)
        scalar = scalar_qhmm_objective(data, spec)
        values = batch(rows)
        assert values.tolist() == [batch(row[None, :])[0] for row in rows]
        assert values.tolist() == [scalar(row) for row in rows]
        assert values[2] == 1e12 and np.all(np.delete(values, 2) < 1e8)


class TestFitCounts:
    def test_counts_on_a_fit_that_hits_the_barrier(self, monkeypatch):
        seen = []

        def counting(*args, **kwargs):
            objective = classical_batch_objective(*args, **kwargs)

            def counted(rows):
                values = objective(rows)
                seen.extend(values.tolist())
                return values

            return counted

        monkeypatch.setattr(estimate, "classical_batch_objective", counting)
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 50, seed=25)
        cfg = FitConfig(max_iter=40, seed=1, restarts=2)
        start = np.full(12, 0.33)  # rows sum to 0.99: the first expansions cross the barrier
        result, _ = fit_classical(
            symbols, KIND_NONPARAM, 4, 2, dgp.scheme, cfg, grid=dgp.grid, theta0=start)
        seen = np.array(seen)
        assert result.evaluations == seen.size
        assert result.barrier_hits == np.sum((seen >= 1e8) & (seen < 1e12)) > 0
        assert result.sentinel_hits == np.sum(seen >= 1e12)
        assert len(result.restarts) == 2 and np.array_equal(result.restarts[0].start, start)
        assert result.nll == min(r.nll for r in result.restarts)
        assert all(r.iterations <= cfg.max_iter for r in result.restarts)

    def test_scalar_nelder_mead_counts(self):
        values = []

        def objective(x):
            values.append(1e8 if x[0] < 0.0 else (x[0] + 0.5) ** 2)  # optimum on the boundary
            return values[-1]

        result = nelder_mead(objective, np.array([0.5]), FitConfig(max_iter=30))
        assert result.evaluations == len(values)
        assert result.barrier_hits == values.count(1e8) > 0
        assert result.sentinel_hits == 0
        assert len(result.restarts) == 1 and result.restarts[0].nll == result.nll


class TestPenaltyLambda:
    def test_monotone_in_states(self):
        consts = PenaltyConstants()
        vals = [penalty_lambda(1000, n, 12, consts) for n in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_frozen_direct_evaluation(self):
        assert penalty_lambda(1000, 4, 12, PenaltyConstants()) == pytest.approx(
            LAMBDA_1000_4_12, rel=1e-12
        )

    def test_vanishes_asymptotically(self):
        # (ln T)^17 ln ln T / T only starts decreasing past T ~ e^17, so the
        # decay is checked at a horizon safely beyond the crossover
        consts = PenaltyConstants()
        assert penalty_lambda(10**18, 4, 12, consts) < penalty_lambda(10**3, 4, 12, consts)
        assert penalty_lambda(10**24, 4, 12, consts) < penalty_lambda(10**18, 4, 12, consts)

    def test_domain(self):
        with pytest.raises(ValidationError):
            penalty_lambda(2, 4, 12, PenaltyConstants())


class TestPenalizedSelect:
    def test_single_candidate_wins(self):
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 60, seed=23)
        cfg = FitConfig(max_iter=40, seed=4, restarts=1)
        best_idx, model, reports = penalized_select(
            symbols, [(KIND_CIR, 4)], 2, dgp.scheme, PenaltyConstants(), cfg
        )
        assert best_idx == 0
        assert len(reports) == 1

    def test_rejects_non_square(self):
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 60, seed=23)
        with pytest.raises(ValidationError):
            penalized_select(
                symbols, [(KIND_CIR, 3)], 2, dgp.scheme, PenaltyConstants(), FitConfig()
            )

    def test_selection_is_reproducible_and_consistent(self):
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 60, seed=29)
        cfg = FitConfig(max_iter=30, seed=6, restarts=1)
        grids = {4: cir_spot_grid(SP500, 4)}
        args = (symbols, [(KIND_CIR, 4), (KIND_NONPARAM, 4)], 2, dgp.scheme, PenaltyConstants(), cfg)
        best1, _, reports1 = penalized_select(*args, grids=grids)
        best2, _, reports2 = penalized_select(*args, grids=grids)
        assert best1 == best2
        assert [r.penalized_objective for r in reports1] == [
            r.penalized_objective for r in reports2
        ]
        chosen = reports1[best1].penalized_objective
        assert all(chosen >= r.penalized_objective for r in reports1)


class TestNestedEvaluationMonotonicity:
    def test_unreachable_extra_state_cannot_hurt(self, rng):
        # embed a 2-state model into 3 states by adding an unreachable state:
        # the processes coincide, so the evaluated nll matches exactly
        values = np.sort(rng.uniform(0.01, 0.2, 2))
        a_small = rng.dirichlet(np.ones(2), size=2)
        scheme = ObservationScheme(edges=np.array([-0.05, 0.05]))
        x0_small = rng.dirichlet(np.ones(2))
        small = build_classical_hmm(
            SpotGrid(values=values),
            TransitionMatrix(probs=a_small, dt=0.5),
            2,
            scheme,
            x0=x0_small,
        )
        a_big = np.zeros((3, 3))
        a_big[:2, :2] = a_small
        a_big[2] = [0.25, 0.25, 0.5]
        big = build_classical_hmm(
            SpotGrid(values=np.append(values, values[-1] * 3.0)),
            TransitionMatrix(probs=a_big, dt=0.5),
            2,
            scheme,
            x0=np.append(x0_small, 0.0),
        )
        _, _, _, symbols = simulate(small, 100, seed=3)
        nll_small = -log_likelihood_binned(small, symbols)
        nll_big = -log_likelihood_binned(big, symbols)
        assert nll_big <= nll_small + 1e-9


class TestDefaults:
    def test_default_starts_are_feasible(self):
        assert constraint_penalty(default_classical_start(KIND_CIR, 4), KIND_CIR, 4) == 0.0
        theta = default_classical_start(KIND_NONPARAM, 5)
        assert constraint_penalty(theta, KIND_NONPARAM, 5) == 0.0

    def test_free_param_counts(self):
        assert free_param_count(KIND_CIR, 16) == 3
        assert free_param_count(KIND_NONPARAM, 16) == 240
