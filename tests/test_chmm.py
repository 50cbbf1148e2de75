import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import brute_force_loglik, random_classical_hmm
from volhmm import operators
from volhmm.chmm import (
    INDEX_SUM,
    MULTISET,
    ClassicalBatch,
    ClassicalHmm,
    EmissionMatrix,
    IntegratedVolTable,
    _path_layout,
    build_classical_hmm,
    build_emission_matrix,
    build_integrated_table,
    emission_given_vbar,
    filter_path,
    log_likelihood_binned,
    log_likelihood_continuous,
    sequence_probability,
    simulate,
)
from volhmm.errors import EnumerationCapError, ValidationError, ZeroLikelihoodError
from volhmm.specfun import gaussian_cdf
from volhmm.volgrid import (
    CirParams,
    ObservationScheme,
    SpotGrid,
    TransitionMatrix,
    build_observation_scheme,
    cir_spot_grid,
    cir_transition_matrix,
    stationary_distribution,
)

PHI_M03 = 0.38208857781104736269  # Phi(-0.3), mpmath erf oracle


def uniform_tm(n, dt=1.0):
    return TransitionMatrix(probs=np.full((n, n), 1.0 / n), dt=dt)


def cold_layout_peak(build):
    """tracemalloc peak in bytes of ``build()`` on an empty substep-path layout cache."""
    _path_layout.cache_clear()
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _path_layout.cache_clear()


def hmm_with_emission(emission_rows, a=None, x0=None):
    """Two-state model with a hand-chosen emission matrix and period chain."""
    n, n_obs = np.shape(emission_rows)
    grid = SpotGrid(values=0.01 * (1.0 + np.arange(n)))
    a = np.eye(n) if a is None else np.asarray(a, dtype=float)
    a_hf = TransitionMatrix(probs=a, dt=1.0)
    table = build_integrated_table(a_hf, grid, 1, MULTISET)
    scheme = ObservationScheme(edges=np.linspace(-0.1, 0.1, n_obs - 1))
    return ClassicalHmm(
        grid=grid,
        a_hf=a_hf,
        table=table,
        emission=EmissionMatrix(probs=np.asarray(emission_rows, dtype=float)),
        x0=np.full(n, 1.0 / n) if x0 is None else np.asarray(x0, dtype=float),
        scheme=scheme,
    )


def sign_bin_hmm(rng, n_states=3, k=2):
    grid = SpotGrid(values=np.sort(rng.uniform(0.01, 1.0, n_states)))
    a_hf = TransitionMatrix(probs=rng.dirichlet(np.ones(n_states), size=n_states), dt=1.0 / k)
    scheme = ObservationScheme(edges=np.array([0.0]))
    return build_classical_hmm(grid, a_hf, k, scheme, x0=rng.dirichlet(np.ones(n_states)))


class TestIntegratedTable:
    def test_two_state_uniform_index_sum(self):
        grid = SpotGrid(values=np.array([0.1, 0.2]))
        table = build_integrated_table(uniform_tm(2, 0.5), grid, 2, INDEX_SUM)
        # four equally likely paths grouped by index sum 0, 1, 2
        assert table.g == pytest.approx(np.array([[0.25, 0.5, 0.25]] * 2))
        assert table.vbar_values == pytest.approx([0.1, 0.15, 0.2])

    def test_multiset_column_count(self):
        grid = SpotGrid(values=np.array([0.1, 0.2, 0.3, 0.4]))
        table = build_integrated_table(uniform_tm(4, 0.25), grid, 4, MULTISET)
        assert table.n_vbar == math.comb(7, 4) == 35

    def test_k_one_degenerates_to_transition_matrix(self, rng):
        n = 3
        a_hf = TransitionMatrix(probs=rng.dirichlet(np.ones(n), size=n))
        grid = SpotGrid(values=np.sort(rng.uniform(0.05, 1.0, n)))
        for mode in (MULTISET, INDEX_SUM):
            table = build_integrated_table(a_hf, grid, 1, mode)
            assert table.g == pytest.approx(a_hf.probs, abs=1e-14)
            assert table.vbar_values == pytest.approx(grid.values)

    def test_rows_normalized(self, rng):
        hmm = random_classical_hmm(rng, n_states=3, k=3)
        assert hmm.table.g.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        g = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="finite and positive"):
            IntegratedVolTable(vbar_values=[bad, 0.1], g=g, k=1, mode=MULTISET)
        g[0, 0] = bad
        with pytest.raises(ValidationError, match="sum to 1"):
            IntegratedVolTable(vbar_values=[0.05, 0.1], g=g, k=1, mode=MULTISET)
        # the example that built before: nan in both
        with pytest.raises(ValidationError):
            IntegratedVolTable(vbar_values=[math.nan, 0.1], g=[[math.nan, 0.5], [0.5, 0.5]],
                               k=1, mode=MULTISET)

    def test_enumeration_cap(self):
        grid = SpotGrid(values=np.linspace(0.1, 1.0, 30))
        with pytest.raises(EnumerationCapError):
            build_integrated_table(uniform_tm(30, 0.2), grid, 5, MULTISET)

    def test_enumeration_cap_checked_before_any_path_array(self):
        grid = SpotGrid(values=np.linspace(0.1, 1.0, 30))
        a_hf = uniform_tm(30, 0.2)

        def build():
            with pytest.raises(EnumerationCapError):
                build_integrated_table(a_hf, grid, 5, MULTISET)

        assert cold_layout_peak(build) < 1_000_000

    def test_cold_preset_layout_peak_memory(self):
        # the (16^4, 4) int64 path array alone would take 2.1 MB; the layout holds 1.2 MB
        assert cold_layout_peak(lambda: _path_layout(16, 4, MULTISET)) <= 5_000_000

    def test_cold_preset_layout_ranks_keys_without_sorting_them(self):
        # np.unique's int64 argsort, cumsum and inverse of the 65,536 keys peaked at 2.7 MB
        assert cold_layout_peak(lambda: _path_layout(16, 4, MULTISET)) <= 2_000_000


class TestEmissionGivenVbar:
    def test_sign_bins_symmetric(self, rng):
        scheme = ObservationScheme(edges=np.array([0.0]))
        for vbar in rng.uniform(0.001, 2.0, 10):
            assert emission_given_vbar(vbar, scheme) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_degenerate_variance_limit(self):
        scheme = ObservationScheme(edges=np.array([-0.03, 0.0, 0.03]))
        probs = emission_given_vbar(1e-10, scheme)
        assert probs == pytest.approx([0.0, 0.5, 0.5, 0.0], abs=1e-12)

    def test_gaussian_oracle(self):
        scheme = ObservationScheme(edges=np.array([-0.03, 0.0, 0.03]))
        probs = emission_given_vbar(0.01, scheme)
        expected = [PHI_M03, 0.5 - PHI_M03, 0.5 - PHI_M03, PHI_M03]
        assert probs == pytest.approx(expected, abs=1e-12)

    def test_domain(self):
        scheme = ObservationScheme(edges=np.array([0.0]))
        with pytest.raises(ValidationError):
            emission_given_vbar(0.0, scheme)


class TestEmissionMatrix:
    def test_sign_bins_rows_half(self, rng):
        hmm = random_classical_hmm(rng)
        scheme = ObservationScheme(edges=np.array([0.0]))
        emission = build_emission_matrix(hmm.table, scheme)
        assert emission.probs == pytest.approx(np.full_like(emission.probs, 0.5), abs=1e-14)

    def test_point_mass_rows(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        table = IntegratedVolTable(vbar_values=np.array([0.01, 0.04]), g=g, k=1, mode=MULTISET)
        scheme = ObservationScheme(edges=np.array([-0.05, 0.05]))
        emission = build_emission_matrix(table, scheme)
        assert emission.probs[0] == pytest.approx(emission_given_vbar(0.01, scheme))
        assert emission.probs[1] == pytest.approx(emission_given_vbar(0.04, scheme))

    def test_preset_scale_against_ungrouped_path_sum(self):
        # 16 states, k = 4 substeps, 4 bins: compare the grouped build against a
        # direct sum over all 16^4 paths without any Vbar grouping.
        params = CirParams(2.2, 0.077, 1.1)
        grid = cir_spot_grid(params, 16)
        a_hf = cir_transition_matrix(params, grid, 0.25)
        scheme = build_observation_scheme(4, 4.0 * math.sqrt(params.beta))
        table = build_integrated_table(a_hf, grid, 4, MULTISET)
        emission = build_emission_matrix(table, scheme)
        assert emission.probs.shape == (16, 4)

        paths = np.array(list(itertools.product(range(16), repeat=4)))
        chain = a_hf.probs[paths[:, :-1], paths[:, 1:]].prod(axis=1)
        start = a_hf.probs[:, paths[:, 0]] * chain  # (16, n_paths)
        vbars = grid.values[paths].mean(axis=1)
        sds = np.sqrt(vbars)
        cdf = np.array([[gaussian_cdf(e / s) for e in scheme.edges] for s in sds])
        masses = np.hstack([cdf[:, :1], np.diff(cdf, axis=1), 1.0 - cdf[:, -1:]])
        direct = start @ masses
        assert np.max(np.abs(direct - emission.probs)) < 1e-12

        # heavier spot states put (weakly) more mass in the edge bins
        edge_mass = emission.probs[:, 0] + emission.probs[:, -1]
        assert np.all(np.diff(edge_mass) > -1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, value):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        probs[1, 0] = value
        with pytest.raises(ValidationError, match="emission"):
            EmissionMatrix(probs=probs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_start_law_rejected(self, value):
        with pytest.raises(ValidationError, match="x0 must be a probability vector"):
            hmm_with_emission([[0.5, 0.5], [0.5, 0.5]], x0=[value, 0.5])

    def test_mode_invariance_on_affine_grid(self, rng):
        # with grid values affine in the state index both groupings induce the
        # same Vbar values, so the emission mixture matches
        n, k = 3, 3
        grid = SpotGrid(values=0.02 + 0.05 * np.arange(n))
        a_hf = TransitionMatrix(probs=rng.dirichlet(np.ones(n), size=n), dt=1.0 / k)
        scheme = build_observation_scheme(4, 0.4)
        e_multi = build_emission_matrix(build_integrated_table(a_hf, grid, k, MULTISET), scheme)
        e_index = build_emission_matrix(build_integrated_table(a_hf, grid, k, INDEX_SUM), scheme)
        assert np.max(np.abs(e_multi.probs - e_index.probs)) < 1e-12


def filter_step(x_prev, hmm, symbol):
    """One filter update by ``operators.filtered``: (next state law, log-likelihood increment)."""
    steps, x = operators.filtered(hmm.operators(), [symbol], np.asarray(x_prev)[None, :])
    return x[0], math.log(steps[0, 0])


class TestForwardStep:
    def test_hand_arithmetic(self):
        hmm = hmm_with_emission([[0.8, 0.2], [0.4, 0.6]], a=np.eye(2))
        x_next, inc = filter_step(np.array([0.5, 0.5]), hmm, 0)
        assert math.exp(inc) == pytest.approx(0.6, rel=1e-14)
        assert x_next == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-14)

    def test_uniform_emissions_follow_chain(self, rng):
        a = rng.dirichlet(np.ones(3), size=3)
        hmm = hmm_with_emission(np.full((3, 2), 0.5), a=a)
        x = rng.dirichlet(np.ones(3))
        x_next, inc = filter_step(x, hmm, 1)
        assert inc == pytest.approx(math.log(0.5), rel=1e-14)
        assert x_next == pytest.approx(x @ a, rel=1e-12)

    def test_point_emission(self, rng):
        a = rng.dirichlet(np.ones(2), size=2)
        hmm = hmm_with_emission(np.eye(2), a=a)
        x_next, _ = filter_step(np.array([0.3, 0.7]), hmm, 0)
        assert x_next == pytest.approx(a[0], rel=1e-14)


class TestLogLikelihoodBinned:
    def test_single_step_marginal(self, rng):
        hmm = random_classical_hmm(rng)
        symbol = 1
        expected = math.log(hmm.x0 @ hmm.emission.probs[:, symbol])
        assert log_likelihood_binned(hmm, [symbol]) == pytest.approx(expected, rel=1e-14)

    def test_sign_bins_give_t_log_half(self, rng):
        hmm = sign_bin_hmm(rng)
        obs = rng.integers(0, 2, 37)
        assert log_likelihood_binned(hmm, obs) == pytest.approx(37 * math.log(0.5), rel=1e-13)

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            hmm = random_classical_hmm(rng)
            obs = rng.integers(0, hmm.n_obs, int(rng.integers(1, 7)))
            forward = log_likelihood_binned(hmm, obs)
            brute = brute_force_loglik(hmm, list(obs))
            assert forward == pytest.approx(brute, rel=1e-12)

    def test_zero_likelihood_reports_step(self):
        rng = np.random.default_rng(3)
        grid = SpotGrid(values=np.array([0.005, 0.01]))
        a_hf = TransitionMatrix(probs=rng.dirichlet(np.ones(2), size=2))
        # edge bins out at +-500 return units get exactly zero mass in float64
        scheme = ObservationScheme(edges=np.array([-500.0, 500.0]))
        hmm = build_classical_hmm(grid, a_hf, 1, scheme, x0=np.array([0.5, 0.5]))
        with pytest.raises(ZeroLikelihoodError) as err:
            log_likelihood_binned(hmm, [1, 1, 0, 1])
        assert err.value.step == 2


class TestLogLikelihoodContinuous:
    def test_single_vbar_is_iid_gaussian(self, rng):
        hmm = random_classical_hmm(rng, n_states=2, k=1)
        vbar = 0.05
        table = IntegratedVolTable(
            vbar_values=np.array([vbar]), g=np.ones((2, 1)), k=1, mode=MULTISET
        )
        hmm = replace(hmm, table=table)
        rets = rng.normal(0.0, math.sqrt(vbar), 25)
        expected = sum(
            -0.5 * math.log(2 * math.pi * vbar) - r * r / (2 * vbar) for r in rets
        )
        assert log_likelihood_continuous(hmm, rets) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_scale_family(self, rng):
        hmm = random_classical_hmm(rng, n_states=2, k=1)
        rets = rng.normal(0.0, 0.1, 20)
        base = log_likelihood_continuous(hmm, rets)
        c = 4.0
        scaled = build_classical_hmm(
            SpotGrid(values=hmm.grid.values * c),
            hmm.a_hf,
            hmm.table.k,
            hmm.scheme,
            mode=hmm.table.mode,
            x0=hmm.x0,
        )
        shifted = log_likelihood_continuous(scaled, rets * math.sqrt(c))
        assert shifted - base == pytest.approx(-20 / 2 * math.log(c), rel=1e-12)

    def test_matches_path_enumeration(self, rng):
        hmm = random_classical_hmm(rng, n_states=2, k=2)
        rets = rng.normal(0.0, 0.2, 4)
        g, vbar, a, x0 = hmm.table.g, hmm.table.vbar_values, hmm.a.probs, hmm.x0

        def density(i, dy):
            return float(
                g[i] @ (np.exp(-(dy * dy) / (2 * vbar)) / np.sqrt(2 * math.pi * vbar))
            )

        total = 0.0
        for path in itertools.product(range(2), repeat=4):
            p = x0[path[0]]
            for t in range(1, 4):
                p *= a[path[t - 1], path[t]]
            for t in range(4):
                p *= density(path[t], rets[t])
            total += p
        assert log_likelihood_continuous(hmm, rets) == pytest.approx(math.log(total), rel=1e-12)


    def test_zero_likelihood_reports_period(self):
        # from state 0 only Vbar = 0.01 is possible, and a return of 10 (100 sd) has a
        # density that underflows to zero; the square of 1e200 overflows
        grid = SpotGrid(values=np.array([0.01, 1.0]))
        a_hf = TransitionMatrix(probs=np.array([[1.0, 0.0], [0.5, 0.5]]))
        scheme = build_observation_scheme(3, 1.0)
        hmm = build_classical_hmm(grid, a_hf, 1, scheme, x0=np.array([1.0, 0.0]))
        for returns, period in (([10.0], 0), ([0.05, -0.1, 10.0, 0.0], 2), ([0.1, 1e200], 1)):
            with pytest.raises(ZeroLikelihoodError, match=f"period {period} ") as err:
                log_likelihood_continuous(hmm, returns)
            assert err.value.step == period
            with pytest.raises(ZeroLikelihoodError, match=f"period {period} "):
                filter_path(hmm, returns=returns)

    def test_batch_row_of_zero_likelihood_reads_minus_infinity(self, rng):
        grid = SpotGrid(values=np.array([0.01, 1.0]))
        scheme = build_observation_scheme(3, 1.0)
        # state 1 never stays, so no period holds Vbar = 1; a return of 100 has zero density
        zero = TransitionMatrix(probs=np.array([[0.5, 0.5], [1.0, 0.0]]), dt=0.5)
        other = TransitionMatrix(probs=rng.dirichlet(np.ones(2), size=2), dt=0.5)
        models = [build_classical_hmm(grid, a, 2, scheme) for a in (zero, other)]
        returns = np.array([[0.1, 100.0, 0.2]] * 2)
        with pytest.raises(ZeroLikelihoodError):
            log_likelihood_continuous(models[0], returns[0])
        batch = ClassicalBatch(
            models[0].table.vbar_values, np.stack([m.table.g for m in models]), None,
            np.stack([m.a.probs for m in models]), np.stack([m.x0 for m in models]),
        )
        got = batch.log_likelihood_continuous(returns)
        assert got[0] == -math.inf and got[1] == log_likelihood_continuous(models[1], returns[1])


class TestFilterPath:
    def test_uniform_emissions_follow_unconditional_chain(self, rng):
        a = rng.dirichlet(np.ones(3), size=3)
        x0 = rng.dirichlet(np.ones(3))
        hmm = hmm_with_emission(np.full((3, 2), 0.5), a=a, x0=x0)
        trace = filter_path(hmm, obs=[0, 1, 0, 0])
        x = x0
        for t in range(4):
            x = x @ a
            assert trace.states[t] == pytest.approx(x, rel=1e-12)

    def test_point_mass_table_filtered_vbar(self, rng):
        hmm = random_classical_hmm(rng, n_states=2, k=1)
        table = IntegratedVolTable(
            vbar_values=hmm.grid.values.copy(), g=np.eye(2), k=1, mode=MULTISET
        )
        hmm = replace(hmm, table=table)
        trace = filter_path(hmm, obs=[0, 1])
        assert trace.filtered_vbar[0] == pytest.approx(float(hmm.x0 @ hmm.grid.values))

    def test_self_filtering_ratio_centers_on_one(self):
        params = CirParams(2.2, 0.077, 1.1)
        grid = cir_spot_grid(params, 4)
        a_hf = cir_transition_matrix(params, grid, 0.25)
        scheme = build_observation_scheme(4, 4.0 * math.sqrt(params.beta))
        hmm = build_classical_hmm(grid, a_hf, 4, scheme)
        _, vbars, _, symbols = simulate(hmm, 500, seed=11)
        trace = filter_path(hmm, obs=symbols)
        ratios = vbars / trace.filtered_vbar - 1.0
        se = ratios.std(ddof=1) / math.sqrt(ratios.size)
        assert abs(ratios.mean()) < 3.0 * se

    def test_simplex_drift_stays_small(self, rng):
        hmm = random_classical_hmm(rng, n_states=3, n_obs=2)
        obs = rng.integers(0, 2, 10_000)
        trace = filter_path(hmm, obs=obs)
        assert np.max(np.abs(trace.states.sum(axis=1) - 1.0)) < 1e-10


class TestSimulate:
    def test_determinism(self, rng):
        hmm = random_classical_hmm(rng)
        a = simulate(hmm, 200, seed=99)
        b = simulate(hmm, 200, seed=99)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_symbol_frequencies_match_stationary_mixture(self, rng):
        base = random_classical_hmm(rng, n_states=3, n_obs=3, k=2)
        pi = stationary_distribution(base.a)
        hmm = build_classical_hmm(
            base.grid, base.a_hf, base.table.k, base.scheme, mode=base.table.mode, x0=pi
        )
        n = 100_000
        _, _, _, symbols = simulate(hmm, n, seed=5)
        mixture = pi @ hmm.emission.probs
        counts = np.bincount(symbols, minlength=hmm.n_obs) / n
        sigma = np.sqrt(mixture * (1 - mixture) / n)
        assert np.all(np.abs(counts - mixture) < 3.5 * sigma + 1e-4)

    def test_near_degenerate_grid_gives_iid_variance(self, rng):
        v = 0.04
        grid = SpotGrid(values=np.array([v, v * (1 + 1e-12)]))
        a_hf = TransitionMatrix(probs=rng.dirichlet(np.ones(2), size=2))
        scheme = ObservationScheme(edges=np.array([0.0]))
        hmm = build_classical_hmm(grid, a_hf, 1, scheme, x0=np.array([0.5, 0.5]))
        _, vbars, _, _ = simulate(hmm, 100, seed=2)
        assert vbars == pytest.approx(np.full(100, v), rel=1e-11)


class TestSequenceProbability:
    def test_empty_sequence(self, rng):
        hmm = random_classical_hmm(rng)
        assert sequence_probability(hmm, []) == pytest.approx(1.0)

    def test_total_probability(self, rng):
        hmm = random_classical_hmm(rng, n_obs=2)
        total = sum(
            sequence_probability(hmm, seq) for seq in itertools.product(range(2), repeat=8)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_forward_loglik(self, rng):
        for _ in range(10):
            hmm = random_classical_hmm(rng)
            obs = rng.integers(0, hmm.n_obs, 6)
            assert sequence_probability(hmm, obs) == pytest.approx(
                math.exp(log_likelihood_binned(hmm, obs)), rel=1e-12
            )

    def test_prefix_consistency(self, rng):
        hmm = random_classical_hmm(rng, n_obs=3)
        prefix = [0, 2, 1]
        p = sequence_probability(hmm, prefix)
        extensions = sum(sequence_probability(hmm, prefix + [s]) for s in range(3))
        assert extensions == pytest.approx(p, rel=1e-12)
