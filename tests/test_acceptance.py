"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The likelihood-ratio
experiment (criterion 8) dominates the runtime; it uses all available cores.
"""

import itertools
import json
import math
import os
import time

import numpy as np

from conftest import brute_force_loglik, random_classical_hmm
from volhmm.analysis import (
    hankel_of_model,
    kl_exact_small,
    kl_monte_carlo,
    llr_experiment,
    llr_summary,
    nab_bounds,
    numerical_rank,
)
from volhmm.chmm import build_classical_hmm, log_likelihood_binned, sequence_probability
from volhmm.cli import main
from volhmm.estimate import ClassicalFitSpec, FitConfig, PenaltyConstants, QhmmFitSpec
from volhmm.qhmm import AnsatzSpec, causal_break_test, qhmm_sequence_logprob, random_qhmm
from volhmm.specfun import NoncentralChi2Law, noncentral_chi2_cdf
from volhmm.volgrid import (
    CirParams,
    build_observation_scheme,
    cir_spot_grid,
    cir_transition_matrix,
)

SP500 = CirParams(alpha=2.2, beta=0.077, sigma=1.1)


def _report(criterion, name, started):
    print(f"ACCEPTANCE {criterion:2d} {name}: PASS ({time.perf_counter() - started:.1f}s)")


def sp500_dgp(n_states=16, k=4, n_obs=4):
    grid = cir_spot_grid(SP500, n_states)
    a_hf = cir_transition_matrix(SP500, grid, 1.0 / k)
    scheme = build_observation_scheme(n_obs, 4.0 * math.sqrt(SP500.beta))
    return build_classical_hmm(grid, a_hf, k, scheme)


def test_criterion_01_forward_equals_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(50):
        hmm = random_classical_hmm(
            rng,
            n_states=int(rng.integers(2, 4)),
            n_obs=int(rng.integers(2, 4)),
            k=int(rng.integers(1, 3)),
        )
        n_steps = int(rng.integers(1, 7))
        obs = rng.integers(0, hmm.n_obs, n_steps)
        forward = log_likelihood_binned(hmm, obs)
        brute = brute_force_loglik(hmm, list(obs))
        assert abs(forward - brute) <= 1e-12 * abs(brute)
    _report(1, "classical forward likelihood vs joint enumeration", started)


def test_criterion_02_total_probability_laws():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    hmm = random_classical_hmm(rng, n_states=3, n_obs=2, k=2)
    total_c = sum(
        sequence_probability(hmm, seq) for seq in itertools.product(range(2), repeat=8)
    )
    assert abs(total_c - 1.0) < 1e-9

    model = random_qhmm(AnsatzSpec(latent_qubits=2, observed_qubits=1, reps=3), 2024)
    total_q = sum(
        math.exp(qhmm_sequence_logprob(model, seq))
        for seq in itertools.product(range(2), repeat=10)
    )
    assert abs(total_q - 1.0) < 1e-9
    _report(2, "total probability over all sequences (classical and quantum)", started)


def test_criterion_03_kraus_completeness():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    for trial in range(100):
        latent = int(rng.integers(1, 4))  # up to 3 latent qubits
        observed = int(rng.integers(1, min(2 * latent, 2) + 1))  # up to 2 observed
        spec = AnsatzSpec(
            latent_qubits=latent,
            observed_qubits=observed,
            reps=int(rng.integers(1, 4)),
            entanglement="full" if trial % 2 == 0 else "linear",
        )
        model = random_qhmm(spec, int(rng.integers(0, 2**31)))
        d = spec.dim_latent
        acc = np.zeros((d, d), dtype=complex)
        for op in model.kraus:
            acc += op.conj().T @ op
        assert np.max(np.abs(acc - np.eye(d))) < 1e-10
    _report(3, "Kraus completeness on 100 random ansatz models", started)


def test_criterion_04_noncentral_chi2_against_oracles():
    started = time.perf_counter()
    import mpmath as mp

    rng = np.random.default_rng(404)

    def quadrature_oracle(x, law):
        # tanh-sinh quadrature of the Bessel-form kernel density in extended
        # precision; handles the algebraic singularity at zero
        mp.mp.dps = 30
        dof, lam = mp.mpf(law.dof), mp.mpf(law.noncentrality)
        q = dof / 2 - 1

        def dens(t):
            return mp.mpf("0.5") * mp.e ** (-(t + lam) / 2) * (t / lam) ** (q / 2) * mp.besseli(
                q, mp.sqrt(lam * t)
            )

        return float(mp.quad(dens, [0, mp.mpf(x)], maxdegree=8))

    laws = [NoncentralChi2Law(dof=0.56, noncentrality=1.2),
            NoncentralChi2Law(dof=0.56, noncentrality=18.0)]
    for law in laws:
        draws = rng.noncentral_chisquare(law.dof, law.noncentrality, size=10_000_000)
        quantiles = np.quantile(draws, np.linspace(0.05, 0.95, 10))
        for x in quantiles:
            mine = noncentral_chi2_cdf(float(x), law)
            empirical = float(np.mean(draws <= x))
            assert abs(mine - empirical) < 1e-3
            assert abs(mine - quadrature_oracle(float(x), law)) < 1e-8
    _report(4, "noncentral chi-squared CDF vs Monte-Carlo and quadrature oracles", started)


def test_criterion_05_cir_transition_matrix_against_kernel_frequencies():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    grid = cir_spot_grid(SP500, 4)
    dt = 0.25
    mat = cir_transition_matrix(SP500, grid, dt)
    assert np.max(np.abs(mat.probs.sum(axis=1) - 1.0)) < 1e-10

    s2 = SP500.sigma**2
    decay = math.exp(-SP500.alpha * dt)
    c = 2.0 * SP500.alpha / ((1.0 - decay) * s2)
    dof = 4.0 * SP500.alpha * SP500.beta / s2
    mids = 0.5 * (grid.values[:-1] + grid.values[1:])
    edges = np.concatenate([[0.0], mids, [np.inf]])
    for i, start in enumerate(grid.values):
        draws = rng.noncentral_chisquare(dof, 2.0 * c * start * decay, size=1_000_000)
        landed = draws / (2.0 * c)
        freq = np.histogram(landed, bins=edges)[0] / landed.size
        assert np.max(np.abs(freq - mat.probs[i])) < 5e-3
    _report(5, "CIR transition rows vs Monte-Carlo kernel frequencies", started)


def test_criterion_06_causal_break_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    spec = AnsatzSpec(latent_qubits=2, observed_qubits=1, reps=3)
    for _ in range(20):
        model = random_qhmm(spec, int(rng.integers(0, 2**31)))
        prefix_a = tuple(rng.integers(0, 2, 2))
        prefix_b = tuple(rng.integers(0, 2, 2))
        report = causal_break_test(model, prefix_a, prefix_b, horizon=3)
        assert report.max_abs_diff < 1e-10
        assert report.markovian
    _report(6, "post-reset continuation distributions coincide", started)


def test_criterion_07_hankel_rank_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    for _ in range(100):
        n_states = int(rng.integers(2, 5))
        hmm = random_classical_hmm(rng, n_states=n_states, n_obs=2, k=int(rng.integers(1, 3)))
        hankel = hankel_of_model(hmm, 3)
        assert numerical_rank(hankel.entries) <= n_states
    for trial in range(100):
        latent = 1 if trial % 2 == 0 else 2
        model = random_qhmm(
            AnsatzSpec(latent_qubits=latent, observed_qubits=1, reps=int(rng.integers(1, 4))),
            int(rng.integers(0, 2**31)),
        )
        hankel = hankel_of_model(model, 3)
        assert numerical_rank(hankel.entries) <= (2**latent) ** 2
    _report(7, "Hankel numerical ranks bounded by model order", started)


def test_criterion_08_llr_experiment_panel_a_desk_scale():
    started = time.perf_counter()
    dgp = sp500_dgp(n_states=16, k=4, n_obs=4)
    spec_i = QhmmFitSpec(ansatz=AnsatzSpec(latent_qubits=1, observed_qubits=2, reps=3))
    spec_j = ClassicalFitSpec(
        kind="nonparam", n_states=4, k=dgp.table.k, scheme=dgp.scheme, delta=dgp.a.dt,
        grid=cir_spot_grid(SP500, 4),
    )
    cfg = FitConfig(max_iter=600, restarts=4)
    workers = min(8, os.cpu_count() or 1)
    samples = llr_experiment(
        dgp, spec_i, spec_j, trials=100, n_steps=100, cfg=cfg, seed=808, workers=workers
    )
    summary = llr_summary(samples)
    assert summary["n_failed"] == 0
    assert summary["negative_fraction"] <= 0.10
    assert summary["mean_llr_log10"] + 2.0 * summary["se_llr_log10"] >= 0.0
    print(
        f"  [criterion 8 detail] negative fraction {summary['negative_fraction']:.2%}, "
        f"mean LLR {summary['mean_llr_log10']:+.3f} +- {summary['se_llr_log10']:.3f}"
    )
    _report(8, "LLR experiment: quantum dominates the matched classical order", started)


def test_criterion_09_kl_estimator_consistency():
    started = time.perf_counter()
    rng = np.random.default_rng(909)
    for pair in range(10):
        dgp = random_classical_hmm(rng, n_states=2, n_obs=2, k=1)
        cand = random_classical_hmm(rng, n_states=2, n_obs=2, k=1)
        assert abs(kl_exact_small(dgp, dgp, 6)) < 1e-12
        exact = kl_exact_small(dgp, cand, 6)
        est, se = kl_monte_carlo(dgp, cand, trials=2000, n_steps=6, seed=pair)
        assert abs(est - exact) <= 3.0 * se
    _report(9, "Monte-Carlo KL agrees with exact enumeration", started)


def test_criterion_10_bound_ordering_sweep():
    started = time.perf_counter()
    rng = np.random.default_rng(1010)
    checked = 0
    cases = [(500, 16, 240, 33)]
    while len(cases) < 100:
        root = int(rng.integers(2, 7))
        cases.append(
            (int(rng.integers(3, 100_000)), root * root,
             int(rng.integers(1, 400)), int(rng.integers(1, 80)))
        )
    for n_periods, n_states, m_c, m_q in cases:
        report = nab_bounds(
            float(rng.uniform(0.0, 0.5)), n_periods, n_states, m_c, m_q, PenaltyConstants()
        )
        poly = (m_c - 1) * n_states + n_states**2 - m_q * math.isqrt(n_states)
        if poly > 0:
            assert report.nab_p >= report.nab_q
            checked += 1
    assert checked >= 90  # the sweep is dominated by positive-excess cases
    _report(10, "non-asymptotic bound ordering across the parameter sweep", started)


def test_criterion_11_cli_determinism(tmp_path):
    started = time.perf_counter()
    config = {
        "dgp": {"alpha": 2.2, "beta": 0.077, "sigma": 1.1, "n_states": 2, "k": 1, "n_obs": 2},
        "experiment": {"trials": 3, "n_periods": 25, "seed": 5},
        "fit": {"kind": "cir", "n_states": 2, "config": {"max_iter": 20, "restarts": 1}},
        "fit_i": {
            "kind": "qhmm",
            "ansatz": {"latent_qubits": 1, "observed_qubits": 1, "reps": 1},
            "config": {"max_iter": 20, "restarts": 1},
        },
        "fit_j": {"kind": "nonparam", "n_states": 2, "config": {"max_iter": 20, "restarts": 1}},
        "bounds": {"kl_inf_estimate": 0.05, "n_periods": 500, "n_states": 16,
                   "m_classical": 240, "m_quantum": 33},
    }
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config, indent=2))

    def run_twice(args_fn, outputs_fn):
        blobs = []
        for tag in ("x", "y"):
            assert main(args_fn(tag)) == 0
            blobs.append(b"".join((tmp_path / name).read_bytes() for name in outputs_fn(tag)))
        assert blobs[0] == blobs[1]

    run_twice(
        lambda tag: ["simulate", "--config", str(cfg), "--out", str(tmp_path / f"d{tag}.csv")],
        lambda tag: [f"d{tag}.csv"],
    )
    data = tmp_path / "dx.csv"
    run_twice(
        lambda tag: ["fit", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / f"f{tag}")],
        lambda tag: [f"f{tag}.model.json", f"f{tag}.report.json"],
    )
    # llr must also be invariant to the worker count
    for tag, workers in (("x", "1"), ("y", "2")):
        assert main(["llr", "--config", str(cfg), "--out", str(tmp_path / f"l{tag}"),
                     "--workers", workers]) == 0
    assert (tmp_path / "lx.csv").read_bytes() == (tmp_path / "ly.csv").read_bytes()
    assert (tmp_path / "lx.hist.json").read_bytes() == (tmp_path / "ly.hist.json").read_bytes()

    model_path = tmp_path / "fx.model.json"
    run_twice(
        lambda tag: ["hankel", "--model", str(model_path), "--depth", "3",
                     "--out", str(tmp_path / f"h{tag}.json")],
        lambda tag: [f"h{tag}.json"],
    )
    run_twice(
        lambda tag: ["bounds", "--config", str(cfg), "--out", str(tmp_path / f"b{tag}.json")],
        lambda tag: [f"b{tag}.json"],
    )
    from volhmm import serialize
    from volhmm.qhmm import AnsatzSpec as Spec

    qmodel = random_qhmm(Spec(1, 1, reps=1), 4)
    qpath = tmp_path / "q.json"
    serialize.save_model(qmodel, qpath)
    run_twice(
        lambda tag: ["markov-test", "--model", str(qpath), "--prefix-a", "1",
                     "--prefix-b", "0", "--horizon", "2", "--out", str(tmp_path / f"m{tag}.json")],
        lambda tag: [f"m{tag}.json"],
    )
    _report(11, "CLI outputs byte-identical across reruns and worker counts", started)
