"""Model-comparison analytics: KL divergence, likelihood-ratio trials, Hankel
rank, non-asymptotic bound evaluation, and filtered-volatility divergence.

KL divergences between sequence models are taken on the binned-symbol
filtration: exactly by summing over every symbol string of a fixed length, or
by Monte Carlo averaging of per-sequence log-likelihood ratios under the data
generating model. The likelihood-ratio experiment repeats the generate/fit/
compare loop over seeded trials; per-trial seeds derive from (seed, purpose,
trial), and the trials of a worker's chunk are fitted in lockstep with the fits
each gets alone, so results do not depend on the worker count.

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
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .chmm import BLOCK_BYTES, ClassicalHmm, simulate_many
from .errors import NumericalError, ValidationError
from .estimate import FitConfig, PenaltyConstants, penalty_lambda
from .operators import forward, leaves, log_likelihood, log_prob, vectors
from .qhmm import QhmmModel, qhmm_simulate_many
from .seeds import derive_seed

_EXACT_KL_CAP = 1_000_000
_HANKEL_CAP = 10_000
LLR_HIST_BINS = 40
RANK_REL_TOL = 1e-9


def model_simulate_symbols(model, n_steps: int, seeds) -> np.ndarray:
    """Symbols (B, n_steps) from either family, row b from seeds[b] (a classical model
    draws its substep path)."""
    if isinstance(model, ClassicalHmm):
        return simulate_many(model, n_steps, seeds)[3]
    if isinstance(model, QhmmModel):
        return qhmm_simulate_many(model, n_steps, seeds)
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

    Trial t's sequence is drawn from the seed derive_seed(seed, "kl-mc", t). The trials
    are drawn and scored a block at a time (one batched draw, one forward pass per model),
    a block's strings within BLOCK_BYTES. A sequence the candidate gives probability zero
    makes the divergence infinite: the result is then (inf, nan), as ``kl_exact_small``
    gives inf; one the DGP gives probability zero raises ZeroLikelihoodError. The first
    such trial decides.
    """
    if trials < 2:
        raise ValidationError(f"need at least 2 trials, got {trials}")
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    ops_p, ops_q = dgp.operators(), candidate.operators()
    diffs = np.empty(trials)
    per_block = max(1, BLOCK_BYTES // (8 * n_steps))
    for t0 in range(0, trials, per_block):
        block = range(t0, min(t0 + per_block, trials))
        seqs = model_simulate_symbols(dgp, n_steps, [derive_seed(seed, "kl-mc", t) for t in block])
        logq = log_prob(forward(ops_q, seqs)[0])
        logp = log_prob(forward(ops_p, seqs)[0])
        impossible = np.flatnonzero((logq == -math.inf) | (logp == -math.inf))
        if impossible.size:
            first = impossible[0]
            if logq[first] == -math.inf:
                return math.inf, math.nan
            log_likelihood(ops_p, seqs[first])  # raises at the string's first impossible step
        diffs[t0 : t0 + len(block)] = logp - logq
    return float(diffs.mean()), float(diffs.std(ddof=1) / math.sqrt(trials))


@dataclass
class LlrSample:
    trial: int
    loglik_model_i: float
    loglik_model_j: float
    llr_log10: float
    status: str = "ok"
    message: str = ""


def _llr_chunk(trials, dgp, spec_i, spec_j, n_steps, cfg, seed) -> list:
    """The LLR samples of a run of trials; the trials' fits of each spec advance in lockstep
    (``spec.fit_all``), so each is the fit the trial gets alone.

    A trial whose fit of spec_i fails is not fitted with spec_j. A failed fit is recorded
    on its own trial, not raised.
    """
    seeds = [derive_seed(seed, "llr-data", t) for t in trials]
    datas = dict(zip(trials, simulate_many(dgp, n_steps, seeds)[3]))
    logliks = {t: [] for t in trials}
    failures = {}
    for spec in (spec_i, spec_j):
        live = [t for t in trials if t not in failures]
        cfgs = [replace(cfg, seed=derive_seed(seed, "llr-fit", t, spec.label)) for t in live]
        for t, outcome in zip(live, spec.fit_all([datas[t] for t in live], cfgs)):
            if isinstance(outcome, NumericalError):
                failures[t] = outcome
            else:
                logliks[t].append(-outcome[0].nll)
    samples = []
    for t in trials:
        if t in failures:
            exc = failures[t]
            samples.append(LlrSample(
                trial=t, loglik_model_i=math.nan, loglik_model_j=math.nan,
                llr_log10=math.nan, status="failed", message=f"{type(exc).__name__}: {exc}",
            ))
        else:
            ll_i, ll_j = logliks[t]
            samples.append(LlrSample(
                trial=t, loglik_model_i=ll_i, loglik_model_j=ll_j,
                llr_log10=(ll_i - ll_j) / math.log(10.0),
            ))
    return samples


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

    Each spec (``estimate.ClassicalFitSpec`` or ``QhmmFitSpec``) fits the DGP's
    symbols with the bins, substeps, period length and grouping it holds. Fit seeds
    depend on (seed, trial, spec label), so identical specs produce identical fits
    and an all-zero LLR column. The trials are split into ``workers`` contiguous chunks
    (at most one per trial; sizes differ by at most one, larger first), each run by one
    process. Within a chunk every trial's fits of a spec advance together, one batched
    objective call per round for the whole chunk, and each fit is the one its trial gets
    alone, so the output is ordered and the same for any worker count. ``progress`` sees
    each sample, in trial order, once its chunk is done.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    chunks = [c.tolist() for c in np.array_split(np.arange(trials), min(workers or 1, trials))]
    task = partial(
        _llr_chunk, dgp=dgp, spec_i=spec_i, spec_j=spec_j, n_steps=n_steps, cfg=cfg, seed=seed
    )
    samples = []
    pool = None
    if len(chunks) > 1:
        # imported here: a one-process run never loads concurrent.futures or multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=len(chunks))
    with pool or nullcontext():
        for chunk in (pool.map if pool else map)(task, chunks):
            for sample in chunk:
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


def llr_histogram(samples) -> dict:
    """Fixed-width histogram of the finite LLR values in ``LLR_HIST_BINS`` bins (edges included)."""
    llrs = np.array([s.llr_log10 for s in samples if s.status == "ok"])
    if llrs.size == 0:
        raise ValidationError("no successful trials to histogram")
    lo, hi = float(llrs.min()), float(llrs.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(llrs, bins=LLR_HIST_BINS, range=(lo, hi))
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


def numerical_rank(matrix) -> int:
    """Count of singular values above ``RANK_REL_TOL`` times the largest one."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return 0
    return rank_of_singular_values(np.linalg.svd(matrix, compute_uv=False))


def rank_of_singular_values(sv) -> int:
    """``numerical_rank`` of a matrix from its singular values, largest first."""
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.sum(sv > RANK_REL_TOL * sv[0]))


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
            **asdict(consts),
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
