"""Each output check accepts the program's output and rejects a corrupted copy.

    PYTHONPATH=src python -m pytest -q bench/test_checks.py
"""

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from volhmm import analysis, chmm, estimate, qhmm, serialize  # noqa: E402
from volhmm.volgrid import build_observation_scheme  # noqa: E402

N_STATES, K = 4, 2
SCHEME = build_observation_scheme(4, 4.0 * math.sqrt(0.077))
TRUE_THETA = np.array([2.2, 0.077, 1.1])


def cir_fit_output(theta, returns):
    """The report and model file a CIR fit ending at ``theta`` would write."""
    model = estimate.classical_model_from_theta(theta, "cir", N_STATES, K, SCHEME)
    report = {
        "kind": "cir", "data_kind": "returns", "n_data": returns.size,
        "theta_hat": list(theta), "nll": -chmm.log_likelihood_continuous(model, returns),
    }
    return report, serialize.model_to_dict(model)


@pytest.fixture(scope="module")
def cir_case():
    """A CIR fit output at the start point, the returns it scores, and that start point."""
    dgp = estimate.classical_model_from_theta(TRUE_THETA, "cir", N_STATES, K, SCHEME)
    returns = chmm.simulate(dgp, 60, 7)[2]
    theta = checks.cir_start_theta(returns)
    return (*cir_fit_output(theta, returns), returns, theta)


def cir_failures(report, doc, returns, theta):
    return checks.check_cir_fit(report, doc, returns, theta, N_STATES, K, 1.0)


def test_cir_fit_accepts_program_output(cir_case):
    assert cir_failures(*cir_case) == []


def test_cir_fit_rejects_moved_a_hf_entry(cir_case):
    report, doc, returns, theta = cir_case
    doc = copy.deepcopy(doc)
    doc["a_hf"][1][0] += 1e-6
    doc["a_hf"][1][1] -= 1e-6
    assert any("a_hf" in f for f in cir_failures(report, doc, returns, theta))


def test_cir_fit_rejects_wrong_nll(cir_case):
    report, doc, returns, theta = cir_case
    report = dict(report, nll=report["nll"] + 1e-6)
    assert any("recomputed" in f for f in cir_failures(report, doc, returns, theta))


def test_cir_fit_rejects_nll_above_start(cir_case):
    returns = cir_case[2]
    report, doc = cir_fit_output(TRUE_THETA * np.array([1.0, 5.0, 1.0]), returns)
    assert any("start-point" in f for f in cir_failures(report, doc, returns, TRUE_THETA))


def test_cir_fit_rejects_asymmetric_emission(cir_case):
    report, doc, returns, theta = cir_case
    doc = copy.deepcopy(doc)
    doc["emission"][0][0] += 1e-9
    doc["emission"][0][1] -= 1e-9
    assert any("emission columns" in f for f in cir_failures(report, doc, returns, theta))


def llr_rows(n_periods=100):
    cap = -n_periods * math.log(2.0)
    rows = []
    for trial, (ll_i, ll_j) in enumerate([(-60.0, cap), (-65.5, cap - 2.0)]):
        rows.append({"trial": str(trial), "loglik_model_i": repr(ll_i), "loglik_model_j": repr(ll_j),
                     "llr_log10": repr((ll_i - ll_j) / math.log(10.0)), "status": "ok", "message": ""})
    hist = {"summary": {"n_ok": 2, "n_failed": 0},
            "histogram": {"bin_edges": list(np.linspace(0.0, 1.0, 41)), "counts": [1] + [0] * 38 + [1]}}
    return rows, hist


def test_llr_accepts_consistent_rows():
    rows, hist = llr_rows()
    assert checks.check_llr(rows, hist, 2, 100) == []


def test_llr_rejects_nonparam_above_cap():
    rows, hist = llr_rows()
    ll_j = -100 * math.log(2.0) + 1e-3
    rows[0]["loglik_model_j"] = repr(ll_j)
    rows[0]["llr_log10"] = repr((float(rows[0]["loglik_model_i"]) - ll_j) / math.log(10.0))
    assert any("exceeds -T ln 2" in f for f in checks.check_llr(rows, hist, 2, 100))


def test_llr_rejects_inconsistent_ratio_status_and_counts():
    rows, hist = llr_rows()
    rows[1]["llr_log10"] = repr(float(rows[1]["llr_log10"]) + 1e-6)
    assert any("llr_log10" in f for f in checks.check_llr(rows, hist, 2, 100))
    rows, hist = llr_rows()
    rows[0]["status"] = "failed"
    assert any("status" in f for f in checks.check_llr(rows, hist, 2, 100))
    rows, hist = llr_rows()
    hist["histogram"]["counts"][5] = 1
    assert any("histogram counts" in f for f in checks.check_llr(rows, hist, 2, 100))


@pytest.fixture(scope="module")
def models():
    dgp = estimate.classical_model_from_theta(TRUE_THETA, "cir", N_STATES, K, SCHEME)
    cand = qhmm.random_qhmm(qhmm.AnsatzSpec(latent_qubits=1, observed_qubits=2, reps=2), 11)
    return {"dgp": dgp, "qhmm": cand}


@pytest.mark.parametrize("name", ["dgp", "qhmm"])
def test_hankel_entries_reject_perturbed_entry(models, name):
    ops = checks.operators_for(serialize.model_to_dict(models[name]))
    hankel = analysis.hankel_of_model(models[name], 2)
    assert checks.check_hankel_entries(hankel.labels, hankel.entries, ops) == []
    entries = hankel.entries.copy()
    entries[7, 3] += 1e-8
    assert checks.check_hankel_entries(hankel.labels, entries, ops) != []
    entries = hankel.entries.copy()
    entries[0, 0] = 1.0 + 1e-6
    assert any("H[(),()]" in f for f in checks.check_hankel_entries(hankel.labels, entries, ops))


@pytest.mark.parametrize("name,bound", [("dgp", N_STATES), ("qhmm", 4)])
def test_hankel_report_rejects_perturbed_singular_value_and_rank(models, name, bound):
    ops = checks.operators_for(serialize.model_to_dict(models[name]))
    entries = analysis.hankel_of_model(models[name], 2).entries
    sv = np.linalg.svd(entries, compute_uv=False)
    doc = {"n_strings": entries.shape[0], "numerical_rank": analysis.numerical_rank(entries),
           "singular_values": sv.tolist()}
    ref_h = checks.ref_hankel(ops, checks.hankel_labels(ops.n_obs, 2))
    assert checks.check_hankel_report(doc, ref_h, bound) == []
    bad = dict(doc, singular_values=(sv + np.eye(sv.size)[1] * 1e-6 * sv[0]).tolist())
    assert any("singular values" in f for f in checks.check_hankel_report(bad, ref_h, bound))
    assert any("outside" in f for f in checks.check_hankel_report(doc, ref_h, doc["numerical_rank"] - 1))


def markov_doc(model, horizon=3):
    report = qhmm.causal_break_test(model, (1, 2), (3, 0), horizon)
    return {
        "prefix_a": [1, 2], "prefix_b": [3, 0], "horizon": horizon,
        "sequences": ["".join(map(str, s)) for s in report.sequences],
        "distribution_a": report.distribution_a.tolist(),
        "distribution_b": report.distribution_b.tolist(),
        "max_abs_diff": report.max_abs_diff, "markovian": report.markovian,
    }


def test_markov_rejects_law_not_summing_to_one(models):
    ops = checks.operators_for(serialize.model_to_dict(models["qhmm"]))
    doc = markov_doc(models["qhmm"])
    assert checks.check_markov(doc, ops, 3) == []
    bad = dict(doc, distribution_b=(np.asarray(doc["distribution_b"]) * (1.0 + 1e-6)).tolist())
    assert any("distribution_b" in f for f in checks.check_markov(bad, ops, 3))
    bad = dict(doc, markovian=False)
    assert any("verdict" in f for f in checks.check_markov(bad, ops, 3))


def test_kl_checks(models):
    ops_p = checks.operators_for(serialize.model_to_dict(models["dgp"]))
    ops_q = checks.operators_for(serialize.model_to_dict(models["qhmm"]))
    exact = analysis.kl_exact_small(models["dgp"], models["qhmm"], 4)
    ref = checks.ref_kl_exact(ops_p, ops_q, 4)
    assert checks.check_kl(exact, exact + 0.01, 0.01, ref) == []
    assert any("4 SE" in f for f in checks.check_kl(exact, exact + 0.05, 0.01, ref))
    assert any("own enumeration" in f for f in checks.check_kl(exact * (1 + 1e-6), exact, 0.01, ref))
    assert any(">= 0" in f for f in checks.check_kl(-1e-3, -1e-3, 0.01, -1e-3))
