import math

import numpy as np
import pytest

from conftest import random_classical_hmm
from volhmm.analysis import (
    ClassicalFitSpec,
    build_hankel,
    filtered_vol_divergence,
    hankel_of_model,
    kl_exact_small,
    kl_monte_carlo,
    llr_experiment,
    llr_histogram,
    llr_summary,
    nab_bounds,
    numerical_rank,
)
from volhmm.chmm import build_classical_hmm
from volhmm.errors import ValidationError
from volhmm.estimate import FitConfig, PenaltyConstants
from volhmm.qhmm import AnsatzSpec, build_qhmm, random_qhmm
from volhmm.volgrid import ObservationScheme, SpotGrid, TransitionMatrix

# Direct formula evaluation (plain arithmetic): T=500, n_L=16, m_c=240,
# m_q=33, kl=0.05, unit constants.
NAB_Q_FROZEN = 66093146799744.734
EXCESS_FROZEN = 443768265600225.9

BERNOULLI_KL = 0.020410997260127586  # 0.5 ln(0.5/0.6) + 0.5 ln(0.5/0.4)


def iid_binary_hmm(p_zero):
    """Two-state chain whose symbol law is iid (p, 1-p): both states identical."""
    grid = SpotGrid(values=np.array([0.01, 0.02]))
    a = TransitionMatrix(probs=np.full((2, 2), 0.5))
    scheme = ObservationScheme(edges=np.array([0.0]))
    hmm = build_classical_hmm(grid, a, 1, scheme, x0=np.array([0.5, 0.5]))
    from dataclasses import replace
    from volhmm.chmm import EmissionMatrix

    emission = EmissionMatrix(probs=np.array([[p_zero, 1 - p_zero], [p_zero, 1 - p_zero]]))
    return replace(hmm, emission=emission)


class TestKlExact:
    def test_self_divergence_is_zero(self, rng):
        model = random_classical_hmm(rng, n_obs=2)
        assert abs(kl_exact_small(model, model, 5)) < 1e-12

    def test_bernoulli_closed_form(self):
        fair = iid_binary_hmm(0.5)
        biased = iid_binary_hmm(0.6)
        assert kl_exact_small(fair, biased, 1) == pytest.approx(BERNOULLI_KL, rel=1e-12)

    def test_sign_model_matches_uniform_channel(self, rng):
        # a sign-binned classical model and the uniform Kraus channel define
        # the same iid fair-coin process
        fair = iid_binary_hmm(0.5)
        channel = random_qhmm(AnsatzSpec(1, 1, reps=1), 3)
        # overwrite with the exactly-uniform channel
        import volhmm.qhmm as q

        u = np.kron(np.eye(2), np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))
        kraus = q.kraus_from_unitary(u, channel.spec)
        uniform = q.QhmmModel(
            kraus=kraus, rho0=channel.rho0, spec=channel.spec,
            theta=channel.theta, theta_init=channel.theta_init,
        )
        assert abs(kl_exact_small(fair, uniform, 6)) < 1e-12

    def test_nonnegative(self, rng):
        for _ in range(5):
            a = random_classical_hmm(rng, n_obs=2)
            b = random_classical_hmm(rng, n_obs=2)
            assert kl_exact_small(a, b, 4) >= -1e-12

    def test_resource_cap(self, rng):
        model = random_classical_hmm(rng, n_obs=3)
        with pytest.raises(ValidationError):
            kl_exact_small(model, model, 20)


class TestKlMonteCarlo:
    def test_self_divergence_within_noise(self, rng):
        model = random_classical_hmm(rng, n_obs=2)
        est, se = kl_monte_carlo(model, model, trials=200, n_steps=5, seed=1)
        assert est == 0.0
        assert se == 0.0

    def test_agrees_with_exact(self, rng):
        for trial in range(3):
            dgp = random_classical_hmm(rng, n_states=2, n_obs=2, k=1)
            cand = random_classical_hmm(rng, n_states=2, n_obs=2, k=1)
            exact = kl_exact_small(dgp, cand, 6)
            est, se = kl_monte_carlo(dgp, cand, trials=2000, n_steps=6, seed=trial)
            assert abs(est - exact) < 3.0 * se

    def test_deterministic(self, rng):
        dgp = random_classical_hmm(rng, n_obs=2)
        cand = random_classical_hmm(rng, n_obs=2)
        a = kl_monte_carlo(dgp, cand, trials=50, n_steps=4, seed=9)
        b = kl_monte_carlo(dgp, cand, trials=50, n_steps=4, seed=9)
        assert a == b

    def test_unsupported_sequence_gives_infinity_like_exact(self, rng):
        # Kraus operators I, 0, 0, 0: only symbol 0 has positive probability.
        spec = AnsatzSpec(1, 2, reps=0)
        cand = build_qhmm(spec, np.zeros(spec.n_params), np.zeros(1))
        dgp = random_classical_hmm(rng, n_obs=4)
        assert kl_exact_small(dgp, cand, 3) == math.inf
        est, se = kl_monte_carlo(dgp, cand, trials=20, n_steps=5, seed=1)
        assert est == math.inf
        assert math.isnan(se)


class TestLlrExperiment:
    def test_identical_specs_give_zero_llr(self, rng):
        dgp = random_classical_hmm(rng, n_states=2, n_obs=2, k=1)
        spec = ClassicalFitSpec(kind="nonparam", n_states=2, grid=dgp.grid)
        cfg = FitConfig(max_iter=40, restarts=1)
        samples = llr_experiment(dgp, spec, spec, trials=3, n_steps=30, cfg=cfg, seed=7)
        assert all(s.status == "ok" for s in samples)
        assert all(s.llr_log10 == 0.0 for s in samples)

    def test_worker_count_does_not_change_results(self, rng):
        dgp = random_classical_hmm(rng, n_states=2, n_obs=2, k=1)
        spec_i = ClassicalFitSpec(kind="nonparam", n_states=2, grid=dgp.grid)
        spec_j = ClassicalFitSpec(kind="cir", n_states=2)
        cfg = FitConfig(max_iter=30, restarts=1)
        serial = llr_experiment(dgp, spec_i, spec_j, trials=4, n_steps=25, cfg=cfg, seed=3)
        parallel = llr_experiment(
            dgp, spec_i, spec_j, trials=4, n_steps=25, cfg=cfg, seed=3, workers=2
        )
        assert [s.llr_log10 for s in serial] == [s.llr_log10 for s in parallel]

    def test_all_failing_fit_marks_trial_failed(self, rng, monkeypatch):
        from volhmm import estimate

        def impossible(steps):
            return np.full(len(steps), -math.inf)  # no model explains the data

        monkeypatch.setattr(estimate, "log_prob", impossible)
        dgp = random_classical_hmm(rng, n_states=2, n_obs=2, k=1)
        spec = ClassicalFitSpec(kind="nonparam", n_states=2, grid=dgp.grid)
        cfg = FitConfig(max_iter=20, restarts=1)
        samples = llr_experiment(dgp, spec, spec, trials=2, n_steps=20, cfg=cfg, seed=7, workers=1)
        assert [s.status for s in samples] == ["failed", "failed"]
        assert all(s.message.startswith("NumericalError") for s in samples)

    def test_summary_and_histogram(self):
        from volhmm.analysis import LlrSample

        samples = [
            LlrSample(trial=t, loglik_model_i=-10.0, loglik_model_j=-11.0, llr_log10=v)
            for t, v in enumerate([0.5, -0.25, 1.5, 0.75])
        ]
        samples.append(
            LlrSample(trial=4, loglik_model_i=math.nan, loglik_model_j=math.nan,
                      llr_log10=math.nan, status="failed", message="boom")
        )
        summary = llr_summary(samples)
        assert summary["n_ok"] == 4
        assert summary["n_failed"] == 1
        assert summary["negative_fraction"] == pytest.approx(0.25)
        hist = llr_histogram(samples)
        assert len(hist["counts"]) == 40
        assert sum(hist["counts"]) == 4


class TestHankel:
    def test_iid_uniform_is_rank_one(self):
        fair = iid_binary_hmm(0.5)
        hankel = hankel_of_model(fair, 3)
        assert hankel.entries[0, 0] == pytest.approx(1.0)
        assert numerical_rank(hankel.entries) == 1

    def test_two_state_rank_at_most_two(self, rng):
        model = random_classical_hmm(rng, n_states=2, n_obs=2, k=1)
        hankel = hankel_of_model(model, 3)
        assert numerical_rank(hankel.entries) <= 2

    def test_prefix_consistency(self, rng):
        model = random_classical_hmm(rng, n_obs=2)
        hankel = hankel_of_model(model, 3)
        labels = hankel.labels
        index = {lab: i for i, lab in enumerate(labels)}
        for lab in labels:
            if len(lab) >= 3:
                continue
            parent = hankel.entries[0, index[lab]]
            children = sum(hankel.entries[0, index[lab + (s,)]] for s in range(2))
            assert children == pytest.approx(parent, abs=1e-12)

    def test_qhmm_rank_bound(self, rng):
        spec = AnsatzSpec(latent_qubits=1, observed_qubits=1, reps=3)
        for seed in range(5):
            model = random_qhmm(spec, seed)
            hankel = hankel_of_model(model, 3)
            assert numerical_rank(hankel.entries) <= 4

    def test_resource_cap(self):
        with pytest.raises(ValidationError):
            build_hankel(lambda s: 0.5, n_obs=10, depth=4)

    def test_custom_oracle_layout(self):
        hankel = build_hankel(lambda s: 0.5 ** len(s), n_obs=2, depth=2)
        assert hankel.labels[0] == ()
        assert hankel.labels[1:3] == [(0,), (1,)]
        assert hankel.entries.shape == (7, 7)


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(4)) == 4

    def test_outer_product(self, rng):
        u, v = rng.normal(size=5), rng.normal(size=5)
        assert numerical_rank(np.outer(u, v)) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0


class TestNabBounds:
    def test_frozen_values(self):
        report = nab_bounds(0.05, 500, 16, 240, 33, PenaltyConstants())
        assert report.nab_q == pytest.approx(NAB_Q_FROZEN, rel=1e-12)
        assert report.classical_excess == pytest.approx(EXCESS_FROZEN, rel=1e-12)
        assert report.nab_p == pytest.approx(NAB_Q_FROZEN + EXCESS_FROZEN, rel=1e-12)

    def test_ordering_when_excess_positive(self, rng):
        for _ in range(50):
            n_root = int(rng.integers(2, 6))
            n_states = n_root * n_root
            m_c = int(rng.integers(1, 300))
            m_q = int(rng.integers(1, 60))
            report = nab_bounds(
                float(rng.uniform(0.0, 1.0)),
                int(rng.integers(3, 10_000)),
                n_states,
                m_c,
                m_q,
                PenaltyConstants(),
            )
            poly = (m_c - 1) * n_states + n_states**2 - m_q * n_root
            if poly > 0:
                assert report.nab_p >= report.nab_q

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            nab_bounds(0.1, 500, 15, 10, 5, PenaltyConstants())


class TestFilteredVolDivergence:
    def test_exact_filter_gives_zero(self, rng):
        v = rng.uniform(0.01, 0.1, 50)
        assert filtered_vol_divergence(v, v) == 0.0

    def test_half_filter(self, rng):
        v = rng.uniform(0.01, 0.1, 50)
        assert filtered_vol_divergence(v, v / 2.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            filtered_vol_divergence([0.1, 0.2], [0.1])
        with pytest.raises(ValidationError):
            filtered_vol_divergence([0.1, -0.2], [0.1, 0.1])
