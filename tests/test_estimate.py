import dataclasses
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
    ClassicalFitSpec,
    FitConfig,
    PenaltyConstants,
    QhmmFitSpec,
    nelder_mead,
    penalized_select,
    penalty_lambda,
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


PRESET_SCHEME = build_observation_scheme(4, 4.0 * math.sqrt(SP500.beta))


def cir(n_states, k=2, scheme=PRESET_SCHEME, **kwargs):
    return ClassicalFitSpec(KIND_CIR, n_states, k, scheme, **kwargs)


def nonparam(n_states, k=2, scheme=PRESET_SCHEME, grid=None, **kwargs):
    """nonparam candidate, on the preset's spot grid unless a grid is given."""
    grid = cir_spot_grid(SP500, n_states) if grid is None else grid
    return ClassicalFitSpec(KIND_NONPARAM, n_states, k, scheme, grid=grid, **kwargs)


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
        assert cir(16).barrier(np.array([2.2, 0.077, 1.1])) == 0.0

    def test_nonparam_single_value_rows(self):
        assert nonparam(2).barrier(np.array([0.7, 0.4])) == 0.0

    def test_negative_cir_barrier(self):
        assert cir(2).barrier(np.array([-1.0, 0.1, 1.0])) >= 1e8

    def test_nonparam_row_sum_barrier(self):
        theta = np.array([0.6, 0.6, 0.1, 0.1, 0.1, 0.1])  # row 0 sums to 1.3
        assert nonparam(3).barrier(theta) >= 1e8

    def test_zero_exactly_inside_feasible_region(self, rng):
        cir_4, nonparam_3 = cir(4), nonparam(3)
        for _ in range(50):
            theta = rng.uniform(0.01, 3.0, 3)
            assert cir_4.barrier(theta) == 0.0
            rows = [rng.dirichlet(np.ones(3))[:2] * 0.99 for _ in range(3)]
            theta_np = np.concatenate(rows)
            assert nonparam_3.barrier(theta_np) == 0.0


class TestFitClassical:
    def test_cir_fit_dominates_truth_in_sample(self):
        dgp = sp500_dgp()
        _, _, _, symbols = simulate(dgp, 500, seed=31)
        truth = np.array([SP500.alpha, SP500.beta, SP500.sigma])
        cfg = FitConfig(max_iter=30, seed=1, restarts=1)
        result, model = cir(16, 4, dgp.scheme).fit(symbols, cfg, theta0=truth)
        nll_truth = -log_likelihood_binned(dgp, symbols)
        assert result.nll <= nll_truth + 1e-6
        assert isinstance(model, ClassicalHmm)

    def test_nonparam_dimension(self):
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 80, seed=7)
        cfg = FitConfig(max_iter=3, seed=2, restarts=1)
        result, _ = nonparam(16, 2, dgp.scheme, grid=cir_spot_grid(SP500, 16)).fit(symbols, cfg)
        assert result.theta_hat.size == 240

    def test_refit_from_optimum_is_fixed_point(self):
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 120, seed=13)
        cfg = FitConfig(max_iter=4000, ftol=1e-7, xtol=1e-8, seed=3, restarts=1)
        spec = cir(4, 2, dgp.scheme)
        first, _ = spec.fit(symbols, cfg)
        again, _ = spec.fit(symbols, cfg, theta0=first.theta_hat)
        assert abs(again.nll - first.nll) < cfg.ftol

    def test_rejects_empty_data(self):
        dgp = sp500_dgp(n_states=4, k=2)
        with pytest.raises(ValidationError):
            cir(4, 2, dgp.scheme).fit(np.array([]), FitConfig())

    @pytest.mark.parametrize("make, theta0", [
        (lambda: cir(4), [1.0, 0.1]),
        (lambda: nonparam(3), np.full(5, 0.2)),
        (lambda: QhmmFitSpec(AnsatzSpec(1, 2, reps=1)), np.zeros(3)),
    ])
    def test_theta0_of_the_wrong_length_rejected(self, make, theta0):
        with pytest.raises(ValidationError, match="theta0 must have"):
            make().fit(np.array([0, 1, 2, 3]), FitConfig(max_iter=5, restarts=1), theta0=theta0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda: cir(4), lambda: nonparam(3), lambda: QhmmFitSpec(AnsatzSpec(1, 2, reps=1)),
    ], ids=["cir", "nonparam", "qhmm"])
    def test_non_finite_theta0_rejected_before_any_evaluation(self, make, value, monkeypatch):
        def descent(*args):
            raise AssertionError("the objective was evaluated")

        monkeypatch.setattr(estimate, "lockstep_nelder_mead", descent)
        spec = make()
        for at in (0, spec.free_params - 1):
            theta0 = np.full(spec.free_params, 0.3)
            theta0[at] = value
            with pytest.raises(ValidationError, match=rf"theta0\[{at}\] is {value}: entries"):
                spec.fit(np.array([0, 1, 2, 3]), FitConfig(max_iter=5, restarts=2), theta0=theta0)


class TestFitQhmm:
    def test_parameter_count_with_init(self):
        spec = AnsatzSpec(1, 1, reps=3)
        assert spec.n_params == 16
        assert QhmmFitSpec(spec).free_params == 17

    def test_uniform_channel_data_reaches_entropy_rate(self):
        # fair-coin data; warm start at the exactly-uniform channel (last layer
        # rotates only the observed qubit by pi/2)
        rng = np.random.default_rng(55)
        data = rng.integers(0, 2, 8000)
        spec = AnsatzSpec(1, 1, reps=3)
        theta0 = np.zeros(1 + spec.n_params)
        theta0[1 + 3 * 4 + 1] = math.pi / 2.0  # last layer, Ry block, qubit 1
        cfg = FitConfig(max_iter=150, seed=5, restarts=1)
        result, model = QhmmFitSpec(spec).fit(data, cfg, theta0=theta0)
        assert abs(result.nll / data.size - math.log(2.0)) < 1e-3

    def test_fit_improves_on_start(self):
        dgp = sp500_dgp(n_states=4, k=2, n_obs=2)
        _, _, _, symbols = simulate(dgp, 100, seed=17)
        spec = AnsatzSpec(1, 1, reps=2)
        cfg = FitConfig(max_iter=150, seed=9, restarts=2)
        result, _ = QhmmFitSpec(spec).fit(symbols, cfg)
        assert result.nll <= result.trace[0] + 1e-12

    def test_symbol_range_validated(self):
        spec = AnsatzSpec(1, 1, reps=1)
        with pytest.raises(ValidationError):
            QhmmFitSpec(spec).fit(np.array([0, 1, 2]), FitConfig())


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
            nonparam(4, 2, dgp.scheme, grid=dgp.grid).fit(
                symbols, FitConfig(max_iter=5, restarts=1))

    def test_symbol_above_scheme_rejected(self):
        dgp, symbols = self._symbols()
        with pytest.raises(ValidationError, match="out of range"):
            cir(4, 2, dgp.scheme).fit(np.append(symbols, 4), FitConfig(max_iter=5))

    def test_all_evaluations_failing_raises(self, monkeypatch):
        def impossible(steps):
            return np.full(len(steps), -math.inf)  # no model explains the data

        monkeypatch.setattr(estimate, "log_prob", impossible)
        dgp, symbols = self._symbols()
        with pytest.raises(NumericalError, match="feasible"):
            cir(4, 2, dgp.scheme).fit(symbols, FitConfig(max_iter=20, restarts=2))

    def test_barrier_only_fit_raises(self):
        dgp, symbols = self._symbols()
        with pytest.raises(NumericalError, match="feasible"):
            cir(4, 2, dgp.scheme).fit(symbols, FitConfig(max_iter=3, restarts=1),
                                      theta0=[-1.0, -0.1, -0.5])

    def test_qhmm_all_evaluations_failing_raises(self, monkeypatch):
        def impossible(steps):
            return np.full(len(steps), -math.inf)  # no model explains the data

        monkeypatch.setattr(estimate, "log_prob", impossible)
        with pytest.raises(NumericalError, match="feasible"):
            QhmmFitSpec(AnsatzSpec(1, 1, reps=1)).fit(
                np.array([0, 1, 1, 0]), FitConfig(max_iter=10, restarts=2))


class TestCandidateChecks:
    """A candidate that cannot fit, or data it cannot fit, fail before any evaluation."""

    def test_nonparam_without_grid_rejected(self):
        with pytest.raises(ValidationError, match="spot grid"):
            ClassicalFitSpec(KIND_NONPARAM, 3, 2, PRESET_SCHEME)

    @pytest.mark.parametrize("kind", [KIND_CIR, KIND_NONPARAM])
    def test_single_state_rejected(self, kind):
        with pytest.raises(ValidationError, match="at least 2 hidden states"):
            ClassicalFitSpec(kind, 1, 2, PRESET_SCHEME, grid=SpotGrid(values=np.array([0.077])))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_returns_rejected(self, bad):
        returns = np.random.default_rng(23).normal(0.0, 0.3, 40)
        returns[7] = bad
        spec = cir(4, 2, data_kind="returns")
        with pytest.raises(ValidationError, match="returns must be finite"):
            spec.fit(returns, FitConfig(max_iter=20, restarts=1))


def scalar_classical_objective(data, spec):
    """The fit objective of one parameter vector, from the single-model functions."""

    def objective(theta):
        penalty = spec.barrier(theta)
        if penalty > 0.0:
            return penalty
        try:
            model = spec.model(theta)
            if spec.data_kind == "symbols":
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
        distinct = {}  # a start repeated bit for bit shares the first one's descent
        for rec, run in zip(result.restarts, runs):
            distinct.setdefault(rec.start.tobytes(), run)
        for count in ("evaluations", "barrier_hits", "sentinel_hits"):
            assert getattr(result, count) == sum(getattr(run, count) for run in distinct.values())

    def test_nonparam(self):
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 60, seed=21)
        cfg = FitConfig(max_iter=80, seed=4, restarts=3)
        spec = nonparam(4, 2, dgp.scheme, grid=dgp.grid)
        result, _ = spec.fit(symbols, cfg)
        objective = scalar_classical_objective(symbols, spec)
        self._assert_sequential(result, objective, cfg, spec.starts(symbols, cfg)[0])
        assert result.barrier_hits > 0

    def test_qhmm(self):
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 40, seed=22)
        spec = AnsatzSpec(1, 2, reps=1)
        cfg = FitConfig(max_iter=80, seed=6, restarts=3)
        theta0 = np.linspace(0.1, 2.0, 1 + spec.n_params)
        result, _ = QhmmFitSpec(spec).fit(symbols, cfg, theta0=theta0)
        self._assert_sequential(result, scalar_qhmm_objective(symbols, spec), cfg, theta0)

    def test_cir_on_returns(self):
        returns = np.random.default_rng(23).normal(0.0, 0.3, 40)
        scheme = build_observation_scheme(4, 1.2)
        cfg = FitConfig(max_iter=20, seed=8, restarts=2)
        spec = cir(4, 2, scheme, data_kind="returns")
        result, _ = spec.fit(returns, cfg)
        objective = scalar_classical_objective(returns, spec)
        self._assert_sequential(result, objective, cfg, spec.starts(returns, cfg)[0])

    def test_repeated_starts_share_one_descent(self):
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 60, seed=21)
        spec = nonparam(4, 2, dgp.scheme, grid=dgp.grid)
        cfg = FitConfig(max_iter=80, seed=3, restarts=4)
        starts = spec.starts(symbols, cfg)
        # every perturbation left the feasible region and fell back to restart 0's point
        assert all(np.array_equal(x0, starts[0]) for x0 in starts[1:])
        four, _ = spec.fit(symbols, cfg)
        one, _ = spec.fit(symbols, FitConfig(max_iter=80, seed=3, restarts=1))
        assert np.array_equal(four.theta_hat, one.theta_hat)
        assert (four.nll, four.iterations, four.converged, four.trace) == (
            one.nll, one.iterations, one.converged, one.trace)
        for count in ("evaluations", "barrier_hits", "sentinel_hits"):
            assert getattr(four, count) == getattr(one, count)
        assert [(r.nll, r.iterations, r.converged) for r in four.restarts] == [
            (one.nll, one.iterations, one.converged)] * 4


class TestLockstepFits:
    """Fits of several data sets run in lockstep equal the fits each data set gets alone."""

    @staticmethod
    def _assert_same_fit(together, alone):
        (result, model), (one, one_model) = together, alone
        assert np.array_equal(result.theta_hat, one.theta_hat)
        assert (result.nll, result.iterations, result.converged, result.trace) == (
            one.nll, one.iterations, one.converged, one.trace)
        for count in ("evaluations", "barrier_hits", "sentinel_hits"):
            assert getattr(result, count) == getattr(one, count)
        assert [(r.start.tobytes(), r.nll, r.iterations, r.converged) for r in result.restarts] == [
            (r.start.tobytes(), r.nll, r.iterations, r.converged) for r in one.restarts]
        assert np.array_equal(model.operators().ops, one_model.operators().ops)

    @pytest.mark.parametrize("kind", ["nonparam", "qhmm"])
    def test_each_fit_equals_its_lone_fit(self, kind):
        dgp = sp500_dgp(n_states=4, k=2)
        datas = [simulate(dgp, 40, seed=30 + f)[3] for f in range(3)]
        cfgs = [FitConfig(max_iter=60, seed=seed, restarts=2) for seed in (1, 2, 3)]
        if kind == "qhmm":
            spec = QhmmFitSpec(AnsatzSpec(1, 2, reps=1))
        else:
            spec = nonparam(4, 2, dgp.scheme, grid=dgp.grid)
        outcomes = spec.fit_all(datas, cfgs)
        for outcome, data, cfg in zip(outcomes, datas, cfgs):
            self._assert_same_fit(outcome, spec.fit(data, cfg))

    def test_a_failed_fit_fails_alone(self):
        dgp = sp500_dgp(n_states=4, k=2)
        datas = [simulate(dgp, 40, seed=30 + f)[3] for f in range(3)]
        cfgs = [FitConfig(max_iter=40, seed=seed, restarts=2) for seed in (1, 2, 3)]
        spec = nonparam(4, 2, dgp.scheme, grid=dgp.grid)
        objective_of = spec.objective

        class FailingOnSecond(ClassicalFitSpec):
            def objective(self, data):
                objective = objective_of(data)

                def failing(rows, sets=None):
                    values = objective(rows, sets)
                    if len(data) == 3:
                        values[sets == 1] = 1e12
                    return values

                return failing

        failing = FailingOnSecond(*(getattr(spec, f.name) for f in dataclasses.fields(spec)))
        outcomes = failing.fit_all(datas, cfgs)
        assert isinstance(outcomes[1], NumericalError)
        assert "no restart reached a feasible" in str(outcomes[1])
        for f in (0, 2):
            self._assert_same_fit(outcomes[f], spec.fit(datas[f], cfgs[f]))

    def test_data_sets_of_different_lengths_rejected(self):
        dgp = sp500_dgp(n_states=4, k=2)
        spec = nonparam(4, 2, dgp.scheme, grid=dgp.grid)
        with pytest.raises(ValidationError, match="one length"):
            spec.fit_all([np.zeros(5, dtype=int), np.zeros(6, dtype=int)], [FitConfig()] * 2)


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
        spec = cir(4, 2, scheme)
        batch = spec.objective(data)
        scalar = scalar_classical_objective(data, spec)
        values = batch(rows)
        alone = [batch(row[None, :])[0] for row in rows]
        assert values.tolist() == alone == [scalar(row) for row in rows]
        assert values[1] == spec.barrier(rows[1])
        assert values[2] == values[3] == 1e12
        assert values[0] < 1e8 and values[4] < 1e8

    def test_huge_shape_row_gets_the_sentinel(self):
        # sigma 8.3e-16 puts the spot grid's incomplete gamma at shape ~1e30, where
        # it cannot converge: that row fails alone instead of the whole batch.
        scheme = build_observation_scheme(4, 4.0 * math.sqrt(0.077))
        data = np.array([0, 1, 2, 3, 1, 2, 0, 3, 2, 1])
        rows = np.array([[2.1113816820690166, 0.11141600799901562, 8.3e-16], [2.2, 0.077, 1.1]])
        batch = cir(4, 2, scheme).objective(data)
        values = batch(rows)
        assert values[0] == 1e12
        assert values[1] == batch(rows[1:])[0] < 1e8

    @pytest.mark.parametrize("data_kind", ["symbols", "returns"])
    def test_under_or_overflowing_sigma_row_gets_the_sentinel(self, data_kind):
        # sigma^2 rounds to 0 at 1e-170 and to inf at 1e200: those rows fail alone
        scheme = build_observation_scheme(4, 4.0 * math.sqrt(0.077))
        if data_kind == "symbols":
            data = np.array([0, 1, 2, 3, 1, 2, 0, 3, 2, 1])
        else:
            data = np.random.default_rng(7).normal(0.0, 0.3, 10)
        rows = np.array([[2.2, 0.077, 1e-170], [2.2, 0.077, 1.1], [2.2, 0.077, 1e200]])
        spec = cir(4, 2, scheme, data_kind=data_kind)
        batch = spec.objective(data)
        values = batch(rows)
        assert values[0] == values[2] == 1e12
        assert values[1] == batch(rows[1:2])[0] == scalar_classical_objective(data, spec)(rows[1])
        assert values[1] < 1e8

    def test_returns_row_of_zero_likelihood_gets_the_sentinel(self, monkeypatch):
        grid = SpotGrid(np.array([0.01, 1.0]))
        spec = nonparam(2, 2, grid=grid, data_kind="returns")
        data = np.array([0.1, 100.0, 0.2])
        rows = np.array([[0.3, 0.6], [0.5, 0.75], [0.9, 0.2]])
        substep_rows = estimate.nonparam_rows

        def with_a_zero_chain(theta, n):
            # row [0.5, 0.75] builds [[0.5, 0.5], [1, 0]]: state 1 never stays, so no period
            # holds Vbar = 1, and the return of 100 has zero density under that model
            a_hf = substep_rows(theta, n)
            a_hf[np.all(theta == [0.5, 0.75], axis=-1)] = [[0.5, 0.5], [1.0, 0.0]]
            return a_hf

        monkeypatch.setattr(estimate, "nonparam_rows", with_a_zero_chain)
        batch = spec.objective(data)
        values = batch(rows)
        scalar = scalar_classical_objective(data, spec)
        assert values[1] == 1e12
        for i in (0, 2):
            assert values[i] == batch(rows[i][None, :])[0] == scalar(rows[i]) < 1e8

    def test_qhmm_mixed_batch(self):
        spec = AnsatzSpec(1, 2, reps=0)
        data = np.array([0, 2, 1, 3, 0])
        rows = np.random.default_rng(24).uniform(0.0, 2.0 * math.pi, (4, 1 + spec.n_params))
        rows[2] = 0.0  # Kraus operators I, 0, 0, 0: only symbol 0 is possible
        batch = QhmmFitSpec(spec).objective(data)
        scalar = scalar_qhmm_objective(data, spec)
        values = batch(rows)
        assert values.tolist() == [batch(row[None, :])[0] for row in rows]
        assert values.tolist() == [scalar(row) for row in rows]
        assert values[2] == 1e12 and np.all(np.delete(values, 2) < 1e8)


class TestFitCounts:
    def test_counts_on_a_fit_that_hits_the_barrier(self, monkeypatch):
        seen = []

        objective_of = ClassicalFitSpec.objective

        def counting(spec, data):
            objective = objective_of(spec, data)

            def counted(rows, *sets):
                values = objective(rows, *sets)
                seen.extend(values.tolist())
                return values

            return counted

        monkeypatch.setattr(ClassicalFitSpec, "objective", counting)
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 50, seed=25)
        cfg = FitConfig(max_iter=40, seed=1, restarts=2)
        start = np.full(12, 0.33)  # rows sum to 0.99: the first expansions cross the barrier
        result, _ = nonparam(4, 2, dgp.scheme, grid=dgp.grid).fit(symbols, cfg, theta0=start)
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
            symbols, [cir(4, 2, dgp.scheme)], PenaltyConstants(), cfg
        )
        assert best_idx == 0
        assert len(reports) == 1

    def test_rejects_non_square(self):
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 60, seed=23)
        with pytest.raises(ValidationError):
            penalized_select(
                symbols, [cir(3, 2, dgp.scheme)], PenaltyConstants(),
                FitConfig(),
            )

    def test_selection_is_reproducible_and_consistent(self):
        dgp = sp500_dgp(n_states=4, k=2)
        _, _, _, symbols = simulate(dgp, 60, seed=29)
        cfg = FitConfig(max_iter=30, seed=6, restarts=1)
        specs = [cir(4, 2, dgp.scheme), nonparam(4, 2, dgp.scheme, grid=cir_spot_grid(SP500, 4))]
        args = (symbols, specs, PenaltyConstants(), cfg)
        best1, _, reports1 = penalized_select(*args)
        best2, _, reports2 = penalized_select(*args)
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
        symbols, cfg = np.array([0, 1]), FitConfig(restarts=1)
        assert cir(4).barrier(cir(4).starts(symbols, cfg)[0]) == 0.0
        assert nonparam(5).barrier(nonparam(5).starts(symbols, cfg)[0]) == 0.0

    def test_free_param_counts(self):
        scheme = build_observation_scheme(4, 1.0)
        assert cir(16, 4, scheme).free_params == 3
        assert nonparam(16, 4, scheme).free_params == 240
