"""Model-comparison analytics: KL divergence, likelihood-ratio trials, Hankel
rank, non-asymptotic bound evaluation, and filtered-volatility divergence.

KL divergences between sequence models are taken on the binned-symbol
filtration: exactly by summing over every symbol string of a fixed length, or
by Monte Carlo averaging of per-sequence log-likelihood ratios under the data
generating model. The likelihood-ratio experiment repeats the generate/fit/
compare loop over seeded trials and is embarrassingly parallel; per-trial
seeds derive from (seed, purpose, trial), so results do not depend on the
worker count.

A sequence model's generalized Hankel matrix holds string probabilities
indexed by (prefix, suffix) pairs; its numerical rank bounds the minimal
realization order (state count classically, squared state count for a quantum
channel).
Both families enter in observable-operator form (``model.operators()``); only
symbol simulation differs by family.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .chmm import ClassicalHmm, simulate
from .errors import ValidationError
from .estimate import (
    FitConfig,
    PenaltyConstants,
    fit_classical,
    fit_qhmm,
    penalty_lambda,
)
from .operators import forward, leaves, log_likelihood, log_prob, vectors
from .qhmm import AnsatzSpec, QhmmModel, qhmm_simulate
from .seeds import derive_seed
from .volgrid import ObservationScheme, SpotGrid

_EXACT_KL_CAP = 1_000_000
_HANKEL_CAP = 10_000


def model_simulate_symbols(model, n_steps: int, seed) -> np.ndarray:
    """Symbols from either family (a classical model draws its substep path)."""
    if isinstance(model, ClassicalHmm):
        return simulate(model, n_steps, seed)[3]
    if isinstance(model, QhmmModel):
        return qhmm_simulate(model, n_steps, seed)
    raise ValidationError(f"unsupported model type {type(model).__name__}")


def kl_exact_small(dgp, candidate, n_steps: int) -> float:
    """Exact KL divergence over all symbol strings of length n_steps, by prefix-tree walks."""
    n_obs = dgp.n_obs
    if candidate.n_obs != n_obs:
        raise ValidationError("models must share the observation alphabet")
    if n_obs**n_steps > _EXACT_KL_CAP:
        raise ValidationError(
            f"{n_obs}^{n_steps} sequences exceeds the exact-KL cap {_EXACT_KL_CAP}"
        )
    logp, _ = leaves(dgp.operators(), n_steps)
    logq, _ = leaves(candidate.operators(), n_steps)
    seen = logp > -math.inf
    if np.any(logq[seen] == -math.inf):
        return math.inf
    return float(np.sum(np.exp(logp[seen]) * (logp[seen] - logq[seen])))


def kl_monte_carlo(dgp, candidate, trials: int, n_steps: int, seed):
    """Monte-Carlo KL estimate and its standard error from simulated sequences.

    A sequence the candidate gives probability zero makes the divergence infinite:
    the result is then (inf, nan), as ``kl_exact_small`` gives inf.
    """
    if trials < 2:
        raise ValidationError(f"need at least 2 trials, got {trials}")
    ops_p, ops_q = dgp.operators(), candidate.operators()
    diffs = np.empty(trials)
    for trial in range(trials):
        seq = model_simulate_symbols(dgp, n_steps, derive_seed(seed, "kl-mc", trial))
        logq = log_prob(forward(ops_q, seq)[0])[0]
        if logq == -math.inf:
            return math.inf, math.nan
        diffs[trial] = log_likelihood(ops_p, seq) - logq
    return float(diffs.mean()), float(diffs.std(ddof=1) / math.sqrt(trials))


@dataclass(frozen=True)
class QhmmFitSpec:
    """LLR-experiment candidate: quantum channel with this ansatz."""

    ansatz: AnsatzSpec

    @property
    def label(self) -> str:
        a = self.ansatz
        return f"qhmm(l={a.latent_qubits},o={a.observed_qubits},reps={a.reps},{a.entanglement})"

    def fit(self, data, k: int, scheme: ObservationScheme, cfg: FitConfig, delta: float):
        return fit_qhmm(data, self.ansatz, cfg)


@dataclass(frozen=True)
class ClassicalFitSpec:
    """LLR-experiment candidate: classical model of the given kind and order."""

    kind: str
    n_states: int
    grid: SpotGrid | None = None

    @property
    def label(self) -> str:
        return f"{self.kind}(n={self.n_states})"

    def fit(self, data, k: int, scheme: ObservationScheme, cfg: FitConfig, delta: float):
        return fit_classical(
            data, self.kind, self.n_states, k, scheme, cfg, grid=self.grid, delta=delta
        )


@dataclass
class LlrSample:
    trial: int
    loglik_model_i: float
    loglik_model_j: float
    llr_log10: float
    status: str = "ok"
    message: str = ""


def _llr_trial(trial, dgp, spec_i, spec_j, n_steps, k, scheme, cfg, seed, delta):
    data = simulate(dgp, n_steps, derive_seed(seed, "llr-data", trial))[3]
    try:
        cfg_i = replace(cfg, seed=derive_seed(seed, "llr-fit", trial, spec_i.label))
        cfg_j = replace(cfg, seed=derive_seed(seed, "llr-fit", trial, spec_j.label))
        result_i, _ = spec_i.fit(data, k, scheme, cfg_i, delta)
        result_j, _ = spec_j.fit(data, k, scheme, cfg_j, delta)
    except Exception as exc:  # per-trial failures are recorded, not fatal
        return LlrSample(
            trial=trial, loglik_model_i=math.nan, loglik_model_j=math.nan,
            llr_log10=math.nan, status="failed", message=f"{type(exc).__name__}: {exc}",
        )
    ll_i, ll_j = -result_i.nll, -result_j.nll
    return LlrSample(
        trial=trial,
        loglik_model_i=ll_i,
        loglik_model_j=ll_j,
        llr_log10=(ll_i - ll_j) / math.log(10.0),
    )


def llr_experiment(
    dgp: ClassicalHmm,
    spec_i,
    spec_j,
    trials: int,
    n_steps: int,
    cfg: FitConfig,
    seed: int,
    workers: int | None = None,
    progress=None,
):
    """Simulate -> fit both specs -> record the base-10 in-sample LLR, per trial.

    Fit seeds depend on (seed, trial, spec label), so identical specs produce
    identical fits and an all-zero LLR column. Trials run in parallel when
    workers > 1; output is ordered and worker-count independent. Classical
    candidates reuse the DGP's substep count, observation scheme, and period
    length.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    k = dgp.table.k
    scheme = dgp.scheme
    delta = dgp.a.dt
    task = partial(
        _llr_trial, dgp=dgp, spec_i=spec_i, spec_j=spec_j, n_steps=n_steps,
        k=k, scheme=scheme, cfg=cfg, seed=seed, delta=delta,
    )
    samples = []
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for sample in pool.map(task, range(trials)):
                samples.append(sample)
                if progress is not None:
                    progress(sample)
    else:
        for trial in range(trials):
            sample = task(trial)
            samples.append(sample)
            if progress is not None:
                progress(sample)
    return samples


def llr_summary(samples) -> dict:
    """Counts, negative fraction, and mean/SE of the finite LLRs."""
    llrs = np.array([s.llr_log10 for s in samples if s.status == "ok"])
    n_failed = sum(1 for s in samples if s.status != "ok")
    if llrs.size == 0:
        return {"n_ok": 0, "n_failed": n_failed, "negative_fraction": math.nan,
                "mean_llr_log10": math.nan, "se_llr_log10": math.nan}
    return {
        "n_ok": int(llrs.size),
        "n_failed": n_failed,
        "negative_fraction": float((llrs < 0.0).mean()),
        "mean_llr_log10": float(llrs.mean()),
        "se_llr_log10": float(llrs.std(ddof=1) / math.sqrt(llrs.size)) if llrs.size > 1 else math.nan,
    }


def llr_histogram(samples, n_bins: int = 40) -> dict:
    """Fixed-width histogram of the finite LLR values (bin edges included)."""
    llrs = np.array([s.llr_log10 for s in samples if s.status == "ok"])
    if llrs.size == 0:
        raise ValidationError("no successful trials to histogram")
    lo, hi = float(llrs.min()), float(llrs.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(llrs, bins=n_bins, range=(lo, hi))
    return {"bin_edges": edges.tolist(), "counts": counts.tolist()}


@dataclass
class HankelMatrix:
    """String probabilities indexed by (prefix, suffix), empty string first."""

    depth: int
    labels: list
    entries: np.ndarray


def _hankel_labels(n_obs: int, depth: int):
    """Index strings of length <= depth: the empty string, then by length and lexicographically."""
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    total = sum(n_obs**length for length in range(depth + 1))
    if total > _HANKEL_CAP:
        raise ValidationError(f"{total} index strings exceeds the Hankel cap {_HANKEL_CAP}")
    labels = [()]
    for length in range(1, depth + 1):
        labels.extend(itertools.product(range(n_obs), repeat=length))
    return labels


def build_hankel(prob_oracle, n_obs: int, depth: int) -> HankelMatrix:
    """Hankel matrix of a sequence-probability oracle, strings of length <= depth."""
    labels = _hankel_labels(n_obs, depth)
    entries = np.empty((len(labels), len(labels)))
    for r, prefix in enumerate(labels):
        for c, suffix in enumerate(labels):
            entries[r, c] = prob_oracle(prefix + suffix)
    return HankelMatrix(depth=depth, labels=labels, entries=entries)


def hankel_of_model(model, depth: int) -> HankelMatrix:
    """H = P S^T from prefix forward vectors x0 M_p and suffix backward vectors M_w out."""
    labels = _hankel_labels(model.n_obs, depth)
    ops = model.operators()
    entries = vectors(ops, depth) @ vectors(ops, depth, backward=True).T
    return HankelMatrix(depth=depth, labels=labels, entries=entries.real)


def numerical_rank(matrix, rel_tol: float = 1e-9) -> int:
    """Count of singular values above rel_tol times the largest one."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return 0
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


@dataclass
class BoundReport:
    """Finite-sample KL bound for the quantum side and the classical excess over it."""

    nab_q: float
    classical_excess: float
    nab_p: float
    inputs: dict


def nab_bounds(
    kl_inf_estimate: float,
    n_periods: int,
    n_states: int,
    m_classical: int,
    m_quantum: int,
    consts: PenaltyConstants,
) -> BoundReport:
    """Evaluate the non-asymptotic bound pair at a classical order and its square root.

    nab_q = (1+eta)(kl + 2 Lambda_T(sqrt(n_L), m_q)) + (A/eta) tau (ln T)^10 / T;
    the classical bound adds f(T) * ((m_c - 1) n_L + n_L^2 - m_q sqrt(n_L))
    with f(T) = (C/eta) (ln T)^17 ln ln T / T.
    """
    root = math.isqrt(n_states)
    if root * root != n_states:
        raise ValidationError(f"n_states={n_states} is not a perfect square")
    if n_periods < 3:
        raise ValidationError(f"need n_periods >= 3, got {n_periods}")
    log_t = math.log(n_periods)
    lam_q = penalty_lambda(n_periods, root, m_quantum, consts)
    nab_q = (1.0 + consts.eta) * (kl_inf_estimate + 2.0 * lam_q) + (
        consts.a_const / consts.eta
    ) * consts.tau * log_t**10 / n_periods
    f_t = (consts.c_lambda / consts.eta) * log_t**17 * math.log(log_t) / n_periods
    poly = (m_classical - 1) * n_states + n_states * n_states - m_quantum * root
    excess = f_t * poly
    return BoundReport(
        nab_q=nab_q,
        classical_excess=excess,
        nab_p=nab_q + excess,
        inputs={
            "kl_inf_estimate": kl_inf_estimate,
            "n_periods": n_periods,
            "n_states": n_states,
            "m_classical": m_classical,
            "m_quantum": m_quantum,
            "c_lambda": consts.c_lambda,
            "eta": consts.eta,
            "w_m": consts.w_m,
            "c_aux": consts.c_aux,
            "a_const": consts.a_const,
            "tau": consts.tau,
        },
    )


def filtered_vol_divergence(true_vbar, filtered_vbar) -> float:
    """Average half relative filtering error: (1/2T) sum (true/filtered - 1)."""
    true_vbar = np.asarray(true_vbar, dtype=float)
    filtered_vbar = np.asarray(filtered_vbar, dtype=float)
    if true_vbar.shape != filtered_vbar.shape or true_vbar.ndim != 1:
        raise ValidationError("sequences must be 1-d and of equal length")
    if np.any(true_vbar <= 0.0) or np.any(filtered_vbar <= 0.0):
        raise ValidationError("integrated variances must be positive")
    return float((true_vbar / filtered_vbar - 1.0).sum() / (2.0 * true_vbar.size))
