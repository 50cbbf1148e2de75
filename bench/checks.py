"""Output checks made apart from the program.

Every reference here is computed with numpy and scipy from the documented
model definitions, not with volhmm: spot grids from ``scipy.stats.gamma.ppf``,
transition rows from ``scipy.stats.ncx2.cdf``, integrated-variance tables from
an own n^k path enumeration, and likelihoods, Hankel matrices, continuation
laws and KL divergences from own forward recursions and operator products.
The remaining checks are properties the method must have (row sums,
probability caps, rank bounds, marginal consistency).

Each ``check_*`` function returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import stats

NLL_TOL = 1e-9
MATRIX_TOL = 1e-9
SYMMETRY_TOL = 1e-12
PROB_TOL = 1e-10
HANKEL_SV_TOL = 1e-10  # relative to the largest singular value
HANKEL_RANK_TOL = 1e-9  # numerical-rank threshold the CLI documents
KL_TOL = 1e-9
KL_MC_SIGMAS = 4.0


# ---------------------------------------------------------------------------
# Classical model, rebuilt from the diffusion parameters
# ---------------------------------------------------------------------------

def ref_spot_grid(alpha, beta, sigma, n_states):
    """Ergodic Gamma-law quantiles (i+1)/(n+1), shape 2ab/s^2, rate 2a/s^2."""
    s2 = sigma * sigma
    shape, rate = 2.0 * alpha * beta / s2, 2.0 * alpha / s2
    q = (np.arange(n_states) + 1.0) / (n_states + 1.0)
    return stats.gamma.ppf(q, a=shape, scale=1.0 / rate)


def ref_cir_transition(alpha, beta, sigma, grid, dt):
    """Noncentral chi-squared CDF differences at the grid midpoints."""
    grid = np.asarray(grid, dtype=float)
    s2 = sigma * sigma
    decay = math.exp(-alpha * dt)
    c = 2.0 * alpha / ((1.0 - decay) * s2)
    dof = 4.0 * alpha * beta / s2
    mids = 0.5 * (grid[:-1] + grid[1:])
    cdf = stats.ncx2.cdf(2.0 * c * mids[None, :], dof, (2.0 * c * decay * grid)[:, None])
    ones = np.ones((grid.size, 1))
    return np.diff(np.hstack([0.0 * ones, cdf, ones]), axis=1)


def ref_vbar_table(grid, a_hf, k):
    """(vbar values, g) from all n^k substep paths, grouped by visited-state multiset."""
    grid = np.asarray(grid, dtype=float)
    a_hf = np.asarray(a_hf, dtype=float)
    n = grid.size
    paths = np.indices((n,) * k).reshape(k, -1).T  # (n^k, k)
    probs = a_hf[:, paths[:, 0]]
    for j in range(1, k):
        probs = probs * a_hf[paths[:, j - 1], paths[:, j]]
    ordered = np.sort(paths, axis=1)
    keys = (ordered * n ** np.arange(k - 1, -1, -1)).sum(axis=1)
    _, group = np.unique(keys, return_inverse=True)
    group = group.reshape(-1)
    n_groups = group.max() + 1
    size = np.bincount(group, minlength=n_groups)
    vbar = np.bincount(group, weights=grid[paths].mean(axis=1), minlength=n_groups) / size
    g = np.zeros((n, n_groups))
    for i in range(n):
        g[i] = np.bincount(group, weights=probs[i], minlength=n_groups)
    return vbar, g


def ref_bin_masses(vbar, edges):
    """(n_vbar, n_bins) masses of N(0, vbar) on the bins cut at ``edges``."""
    z = np.asarray(edges, dtype=float)[None, :] / np.sqrt(np.asarray(vbar, dtype=float))[:, None]
    cdf = stats.norm.cdf(z)
    return np.diff(np.hstack([np.zeros((cdf.shape[0], 1)), cdf, np.ones((cdf.shape[0], 1))]), axis=1)


def ref_stationary(a):
    """Left fixed vector of a row-stochastic matrix by a direct linear solve."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    lhs = np.vstack([(a.T - np.eye(n))[:-1], np.ones(n)])
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(lhs, rhs)


def ref_loglik_returns(grid, a_hf, k, x0, returns):
    """Continuous-return log-likelihood: weight by the Gaussian-mixture density, then propagate."""
    vbar, g = ref_vbar_table(grid, a_hf, k)
    a = np.linalg.matrix_power(np.asarray(a_hf, dtype=float), k)
    y = np.asarray(returns, dtype=float)[:, None]
    logphi = -0.5 * (math.log(2.0 * math.pi) + np.log(vbar))[None, :] - y * y / (2.0 * vbar[None, :])
    shift = logphi.max(axis=1)
    dens = np.exp(logphi - shift[:, None]) @ g.T  # (T, n)
    x = np.asarray(x0, dtype=float)
    total = 0.0
    for t in range(dens.shape[0]):
        w = x * dens[t]
        s = w.sum()
        total += math.log(s) + shift[t]
        x = (w / s) @ a
    return total


def ref_cir_nll_at(theta, n_states, k, delta, returns):
    """NLL of a CIR candidate rebuilt from scratch, started from its stationary law."""
    alpha, beta, sigma = (float(v) for v in theta)
    grid = ref_spot_grid(alpha, beta, sigma, n_states)
    a_hf = ref_cir_transition(alpha, beta, sigma, grid, delta / k)
    x0 = ref_stationary(np.linalg.matrix_power(a_hf, k))
    return -ref_loglik_returns(grid, a_hf, k, x0, returns)


def check_cir_fit(report, model_doc, returns, start_theta, n_states, k, delta):
    """A ``fit --kind cir`` on raw returns, against a rebuild from its reported parameters."""
    failures = []
    theta = np.asarray(report["theta_hat"], dtype=float)
    if report["kind"] != "cir" or report["data_kind"] != "returns" or theta.shape != (3,):
        return [f"unexpected report header: {report['kind']}, {report['data_kind']}, {theta}"]
    if report["n_data"] != len(returns):
        failures.append(f"report n_data {report['n_data']} != {len(returns)} data rows")
    if not np.all(theta > 0.0):
        failures.append(f"theta_hat {theta} is not a valid CIR parameter vector")
        return failures
    grid = np.asarray(model_doc["grid"], dtype=float)
    a_hf = np.asarray(model_doc["a_hf"], dtype=float)
    emission = np.asarray(model_doc["emission"], dtype=float)
    ref_grid = ref_spot_grid(*theta, n_states)
    if grid.shape != ref_grid.shape or np.max(np.abs(grid - ref_grid)) > MATRIX_TOL:
        failures.append("spot grid differs from the Gamma-quantile rebuild at theta_hat")
        return failures
    ref_a = ref_cir_transition(*theta, ref_grid, delta / k)
    a_err = float(np.max(np.abs(a_hf - ref_a))) if a_hf.shape == ref_a.shape else math.inf
    if a_err > MATRIX_TOL:
        failures.append(f"a_hf differs from the ncx2 rebuild at theta_hat by {a_err:.3e}")
    if model_doc["k"] != k or abs(model_doc["dt_hf"] - delta / k) > 1e-15:
        failures.append("model k / dt_hf do not match the config")
    n_obs = emission.shape[1]
    for s in range(n_obs // 2):
        gap = float(np.max(np.abs(emission[:, s] - emission[:, n_obs - 1 - s])))
        if gap > SYMMETRY_TOL:
            failures.append(f"emission columns {s} and {n_obs - 1 - s} differ by {gap:.3e}")
    nll = -ref_loglik_returns(grid, a_hf, k, model_doc["x0"], returns)
    if not abs(nll - report["nll"]) <= NLL_TOL * max(1.0, abs(nll)):
        failures.append(f"reported nll {report['nll']!r} != recomputed {nll!r}")
    start_nll = ref_cir_nll_at(start_theta, n_states, k, delta, returns)
    if not report["nll"] <= start_nll + NLL_TOL * max(1.0, abs(start_nll)):
        failures.append(f"fitted nll {report['nll']!r} is above the start-point nll {start_nll!r}")
    return failures


def cir_start_theta(returns):
    """The documented ``fit --kind cir`` starting point on raw returns: (1, var(returns), 0.5)."""
    return np.array([1.0, max(float(np.var(np.asarray(returns, dtype=float))), 1e-6), 0.5])


# ---------------------------------------------------------------------------
# Likelihood-ratio experiment
# ---------------------------------------------------------------------------

def check_llr(rows, hist_doc, trials, n_periods):
    """Per-trial CSV rows (dicts) and the histogram document of ``volhmm llr``.

    Model j is the classical nonparam candidate: with bins symmetric about 0
    and zero-mean Gaussian emissions every predictive symbol probability is at
    most 1/2, so its log-likelihood cannot exceed -T ln 2.
    """
    failures = []
    if [int(r["trial"]) for r in rows] != list(range(trials)):
        failures.append(f"expected trials 0..{trials - 1}, got {[r['trial'] for r in rows]}")
    cap = -n_periods * math.log(2.0)
    for r in rows:
        t = r["trial"]
        if r["status"] != "ok":
            failures.append(f"trial {t}: status {r['status']!r} ({r['message']})")
            continue
        ll_i, ll_j, llr = float(r["loglik_model_i"]), float(r["loglik_model_j"]), float(r["llr_log10"])
        if not (math.isfinite(ll_i) and math.isfinite(ll_j) and ll_i <= 0.0 and ll_j <= 0.0):
            failures.append(f"trial {t}: log-likelihoods {ll_i}, {ll_j} are not finite and <= 0")
            continue
        want = (ll_i - ll_j) / math.log(10.0)
        if not abs(llr - want) <= 1e-12 * max(1.0, abs(want)):
            failures.append(f"trial {t}: llr_log10 {llr!r} != (ll_i - ll_j)/ln 10 = {want!r}")
        if ll_j > cap + NLL_TOL * abs(cap):
            failures.append(f"trial {t}: nonparam log-likelihood {ll_j!r} exceeds -T ln 2 = {cap!r}")
    summary = hist_doc["summary"]
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    if summary["n_ok"] != n_ok or summary["n_failed"] != len(rows) - n_ok:
        failures.append(f"summary counts {summary['n_ok']}/{summary['n_failed']} != CSV {n_ok}")
    hist = hist_doc["histogram"]
    if hist is None or sum(hist["counts"]) != n_ok:
        failures.append("histogram counts do not sum to n_ok")
    elif len(hist["bin_edges"]) != len(hist["counts"]) + 1 or np.any(np.diff(hist["bin_edges"]) <= 0):
        failures.append("histogram bin edges are not increasing, one more than the counts")
    return failures


# ---------------------------------------------------------------------------
# Sequence models as linear operators
# ---------------------------------------------------------------------------

class ClassicalOperators:
    """P(s_1..s_L) = x0 . diag(e_{s1}) A ... diag(e_{sL}) A . 1, rebuilt from a model file."""

    def __init__(self, model_doc):
        grid = np.asarray(model_doc["grid"], dtype=float)
        a_hf = np.asarray(model_doc["a_hf"], dtype=float)
        k = int(model_doc["k"])
        vbar, g = ref_vbar_table(grid, a_hf, k)
        self.emission = g @ ref_bin_masses(vbar, model_doc["scheme_edges"])
        self.a = np.linalg.matrix_power(a_hf, k)
        self.x0 = np.asarray(model_doc["x0"], dtype=float)
        self.n_obs = self.emission.shape[1]
        # Row-vector operators: v -> v @ ops[s].
        self.ops = np.stack([self.emission[:, s, None] * self.a for s in range(self.n_obs)])

    def forward(self, prefixes):
        """Unnormalized forward row vectors, one per prefix."""
        out = []
        for p in prefixes:
            v = self.x0
            for s in p:
                v = v @ self.ops[s]
            out.append(v)
        return np.array(out)

    def backward(self, suffixes):
        out = []
        for s in suffixes:
            v = np.ones(self.a.shape[0])
            for sym in reversed(s):
                v = self.ops[sym] @ v
            out.append(v)
        return np.array(out)

    def probabilities(self, strings):
        return self.forward(strings).sum(axis=1)


class QuantumOperators:
    """P(s_1..s_L) = tr(K_sL ... K_s1 rho0 K_s1^+ ... K_sL^+), from the stored Kraus set.

    rho0 is rebuilt from theta_init by the documented convention: Ry(theta_q)
    on each latent qubit from |0>, then a CNOT chain q -> q+1, latent qubit 0
    being the least significant bit.
    """

    def __init__(self, model_doc):
        self.kraus = np.array(
            [[[complex(re, im) for re, im in row] for row in op] for op in model_doc["kraus"]]
        )
        self.n_obs = self.kraus.shape[0]
        theta_init = np.asarray(model_doc["theta_init"], dtype=float)
        n_q = theta_init.size
        psi = np.array([1.0 + 0j])
        for q in range(n_q - 1, -1, -1):
            psi = np.kron(psi, [math.cos(theta_init[q] / 2.0), math.sin(theta_init[q] / 2.0)])
        for q in range(n_q - 1):
            idx = np.arange(psi.size)
            control = (idx >> q) & 1
            psi = psi[np.where(control == 1, idx ^ (1 << (q + 1)), idx)]
        self.rho0 = np.outer(psi, psi.conj())

    def completeness_error(self):
        d = self.kraus.shape[1]
        total = sum(k.conj().T @ k for k in self.kraus)
        return float(np.max(np.abs(total - np.eye(d))))

    def forward(self, prefixes):
        """Unnormalized conditional states, flattened."""
        out = []
        for p in prefixes:
            rho = self.rho0
            for s in p:
                rho = self.kraus[s] @ rho @ self.kraus[s].conj().T
            out.append(rho.reshape(-1))
        return np.array(out)

    def backward(self, suffixes):
        """Effects E_s with P(prefix, s) = tr(E_s sigma_prefix), flattened transposed."""
        d = self.kraus.shape[1]
        out = []
        for s in suffixes:
            eff = np.eye(d, dtype=complex)
            for sym in reversed(s):
                eff = self.kraus[sym].conj().T @ eff @ self.kraus[sym]
            out.append(eff.T.reshape(-1))
        return np.array(out)

    def probabilities(self, strings):
        rhos = self.forward(strings)
        d = self.kraus.shape[1]
        return np.real(rhos[:, :: d + 1].sum(axis=1))


def operators_for(model_doc):
    if model_doc["model_type"] == "classical":
        return ClassicalOperators(model_doc)
    return QuantumOperators(model_doc)


def hankel_labels(n_obs, depth):
    labels = [()]
    for length in range(1, depth + 1):
        labels.extend(itertools.product(range(n_obs), repeat=length))
    return labels


def ref_hankel(ops, labels):
    """H = F B^T from prefix forward states and suffix backward functionals."""
    return np.real(ops.forward(labels) @ ops.backward(labels).T)


def check_hankel_report(doc, ref_h, rank_bound):
    """``volhmm hankel`` output: singular values against an own Hankel matrix, rank bound."""
    failures = []
    if doc["n_strings"] != ref_h.shape[0]:
        return [f"n_strings {doc['n_strings']} != {ref_h.shape[0]}"]
    sv = np.asarray(doc["singular_values"], dtype=float)
    ref_sv = np.linalg.svd(ref_h, compute_uv=False)
    err = float(np.max(np.abs(sv - ref_sv))) if sv.shape == ref_sv.shape else math.inf
    if err > HANKEL_SV_TOL * ref_sv[0]:
        failures.append(f"singular values differ from the own Hankel matrix by {err:.3e}")
    rank = doc["numerical_rank"]
    if rank != int(np.sum(sv > HANKEL_RANK_TOL * sv[0])):
        failures.append(f"reported rank {rank} does not match the reported singular values")
    if not 1 <= rank <= rank_bound:
        failures.append(f"numerical rank {rank} outside [1, {rank_bound}]")
    return failures


def check_hankel_entries(labels, entries, ops):
    """A program-built Hankel matrix: H[(),()] = 1, prefix marginals, entries vs operator products."""
    failures = []
    entries = np.asarray(entries, dtype=float)
    if abs(entries[0, 0] - 1.0) > PROB_TOL:
        failures.append(f"H[(),()] = {entries[0, 0]!r}, expected 1")
    index = {lab: i for i, lab in enumerate(labels)}
    depth = max(len(lab) for lab in labels)
    for p in labels:
        if len(p) == depth:
            continue
        total = sum(entries[index[p + (a,)], 0] for a in range(ops.n_obs))
        if abs(total - entries[index[p], 0]) > PROB_TOL:
            failures.append(f"prefix {p}: sum over next symbol {total!r} != H[p,()] {entries[index[p], 0]!r}")
            break
    err = float(np.max(np.abs(entries - ref_hankel(ops, labels))))
    if err > PROB_TOL:
        failures.append(f"Hankel entries differ from own operator products by {err:.3e}")
    return failures


def check_markov(doc, ops, horizon):
    """``volhmm markov-test`` output against the own continuation law after prefix A."""
    failures = []
    if not doc["markovian"] or not doc["max_abs_diff"] < 1e-10:
        failures.append(f"verdict markovian={doc['markovian']}, max_abs_diff={doc['max_abs_diff']!r}")
    seqs = ["".join(map(str, s)) for s in itertools.product(range(ops.n_obs), repeat=horizon)]
    if doc["sequences"] != seqs:
        failures.append("continuation sequences are not all strings of the horizon, in order")
        return failures
    for name in ("distribution_a", "distribution_b"):
        dist = np.asarray(doc[name], dtype=float)
        if abs(dist.sum() - 1.0) > PROB_TOL or np.any(dist < 0.0):
            failures.append(f"{name} is not a probability law (sum {dist.sum()!r})")
    prefix = tuple(doc["prefix_a"])
    joint = ops.probabilities([prefix + tuple(int(c) for c in s) for s in seqs])
    ref = joint / ops.probabilities([prefix])[0]
    err = float(np.max(np.abs(np.asarray(doc["distribution_a"]) - ref)))
    if err > PROB_TOL:
        failures.append(f"continuation law after prefix A differs from own products by {err:.3e}")
    return failures


def ref_kl_exact(ops_p, ops_q, n_steps):
    strings = list(itertools.product(range(ops_p.n_obs), repeat=n_steps))
    p = ops_p.probabilities(strings)
    q = ops_q.probabilities(strings)
    keep = p > 0.0
    return float(np.sum(p[keep] * (np.log(p[keep]) - np.log(q[keep]))))


def check_kl(exact, mc_mean, mc_se, ref_exact):
    failures = []
    if not (math.isfinite(exact) and exact >= 0.0):
        failures.append(f"exact KL {exact!r} is not finite and >= 0")
    if not abs(exact - ref_exact) <= KL_TOL * max(1.0, abs(ref_exact)):
        failures.append(f"exact KL {exact!r} != own enumeration {ref_exact!r}")
    if not (mc_se > 0.0 and abs(mc_mean - exact) <= KL_MC_SIGMAS * mc_se):
        failures.append(f"Monte-Carlo KL {mc_mean!r} +- {mc_se!r} is not within 4 SE of {exact!r}")
    return failures
