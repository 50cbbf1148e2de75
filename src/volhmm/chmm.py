"""Classical hidden Markov model for discretely sampled stochastic volatility.

One observation period spans k high-frequency substeps of the spot-variance
chain. Conditional on the spot state at the start of a period, the integrated
variance Vbar (average spot variance over the period's k substeps) has a
discrete distribution g obtained by enumerating all n_L^k substep paths; the
period return is N(0, Vbar) and is recorded as a bin symbol. The emission
matrix therefore attaches to the state at the *start* of each period,

    P(symbol s | state i) = sum_j g[i, j] * NormalBinMass(s; Vbar_j),

and the matched filter is weight-then-propagate: reweight the current state
distribution by the emission column, normalize, then push through the
period-level transition matrix A = A_hf^k. Summed per-step log-normalizers
equal the exact sequence log-probability, which is also available through the
observable-operator product (diagonal emission weight followed by A) for
Hankel-matrix work.

Two groupings of the substep paths are supported: ``multiset`` keys paths by
the multiset of visited states (exact Vbar values, C(n_L+k-1, k) columns) and
``index-sum`` keys them by the shifted index sum (k(n_L-1)+1 columns, Vbar =
unweighted mean of the member paths' averages).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EnumerationCapError, ValidationError, ZeroLikelihoodError
from .volgrid import (
    ObservationScheme,
    SpotGrid,
    TransitionMatrix,
    matrix_power,
    stationary_distribution,
)

ENUMERATION_CAP = 10_000_000
_ROW_SUM_TOL = 1e-10

MULTISET = "multiset"
INDEX_SUM = "index-sum"
_MODES = (MULTISET, INDEX_SUM)

WEIGHT_FIRST = "weight-first"
PROPAGATE_FIRST = "propagate-first"
_ORDERS = (WEIGHT_FIRST, PROPAGATE_FIRST)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class IntegratedVolTable:
    """Distribution of per-period integrated variance given the period's start state."""

    vbar_values: np.ndarray  # (n_vbar,)
    g: np.ndarray  # (n_states, n_vbar), rows sum to 1
    k: int
    mode: str

    def __post_init__(self):
        vbar = np.asarray(self.vbar_values, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if np.any(vbar <= 0.0):
            raise ValidationError("integrated-variance values must be positive")
        if g.ndim != 2 or g.shape[1] != vbar.size:
            raise ValidationError("g must be (n_states, n_vbar)")
        row_err = np.max(np.abs(g.sum(axis=1) - 1.0))
        if row_err > _ROW_SUM_TOL:
            raise ValidationError(f"rows of g must sum to 1, max error {row_err}")
        if self.mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        object.__setattr__(self, "vbar_values", _freeze(vbar))
        object.__setattr__(self, "g", _freeze(g))

    @property
    def n_states(self) -> int:
        return self.g.shape[0]

    @property
    def n_vbar(self) -> int:
        return self.vbar_values.size


@dataclass(frozen=True)
class EmissionMatrix:
    """Per-start-state distribution over observation symbols."""

    probs: np.ndarray  # (n_states, n_obs)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise ValidationError("emission matrix must be 2-d")
        if np.any(probs < -1e-15):
            raise ValidationError("emission probabilities must be nonnegative")
        row_err = np.max(np.abs(probs.sum(axis=1) - 1.0))
        if row_err > _ROW_SUM_TOL:
            raise ValidationError(f"emission rows must sum to 1, max error {row_err}")
        object.__setattr__(self, "probs", _freeze(np.clip(probs, 0.0, 1.0)))


@dataclass(frozen=True)
class ClassicalHmm:
    """Spot grid, substep and period transition matrices, Vbar table, emissions, start law."""

    grid: SpotGrid
    a_hf: TransitionMatrix
    a: TransitionMatrix
    table: IntegratedVolTable
    emission: EmissionMatrix
    x0: np.ndarray
    scheme: ObservationScheme

    def __post_init__(self):
        n = self.grid.n_states
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (n,) or np.any(x0 < 0.0) or abs(x0.sum() - 1.0) > _ROW_SUM_TOL:
            raise ValidationError("x0 must be a probability vector over the hidden states")
        for mat, name in ((self.a_hf, "a_hf"), (self.a, "a")):
            if mat.n_states != n:
                raise ValidationError(f"{name} has {mat.n_states} states, grid has {n}")
        if self.table.n_states != n or self.emission.probs.shape[0] != n:
            raise ValidationError("table/emission state dimension mismatch")
        if self.emission.probs.shape[1] != self.scheme.n_bins:
            raise ValidationError("emission symbol dimension does not match the scheme")
        if np.max(np.abs(matrix_power(self.a_hf, self.table.k).probs - self.a.probs)) > 1e-10:
            raise ValidationError("a must equal a_hf^k")
        object.__setattr__(self, "x0", _freeze(x0))

    @property
    def n_states(self) -> int:
        return self.grid.n_states

    @property
    def n_obs(self) -> int:
        return self.scheme.n_bins


@dataclass
class FilterTrace:
    """Filtered state vectors, per-step log-likelihood increments, and predictive Vbar."""

    states: np.ndarray  # (T, n_states)
    loglik_increments: np.ndarray  # (T,)
    filtered_vbar: np.ndarray  # (T,)


@lru_cache(maxsize=32)
def _path_layout(n_states: int, k: int, mode: str):
    """Substep-path index arrays shared by every table build at (n_states, k, mode).

    Returns (paths, group_ids, n_groups, member_counts): paths is the
    (n_paths, k) array of state-index sequences in lexicographic order, and
    group_ids maps each path to its Vbar column.
    """
    n_paths = n_states**k
    if n_paths > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{n_states}^{k} = {n_paths} substep paths exceeds the cap {ENUMERATION_CAP}"
        )
    paths = np.array(list(itertools.product(range(n_states), repeat=k)), dtype=np.int64)
    reps = None
    if mode == INDEX_SUM:
        group_ids = paths.sum(axis=1)
        n_groups = k * (n_states - 1) + 1
    elif mode == MULTISET:
        sorted_paths = np.sort(paths, axis=1)
        reps, group_ids = np.unique(sorted_paths, axis=0, return_inverse=True)
        n_groups = math.comb(n_states + k - 1, k)
        reps = _freeze(reps)
    else:
        raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
    member_counts = np.bincount(group_ids, minlength=n_groups)
    return (
        _freeze(paths),
        _freeze(np.asarray(group_ids, dtype=np.int64).reshape(-1)),
        n_groups,
        _freeze(member_counts),
        reps,
    )


def _path_probs(a_hf: np.ndarray, k: int) -> np.ndarray:
    """(n_states, n_paths) probability of each substep path from each start state.

    Paths are in lexicographic order, as in ``_path_layout``. The chain
    product a[p0,p1] a[p1,p2] ... is built one outer product per substep, left
    to right, and the start-state factor a[i,p0] multiplies it last.
    """
    if k == 1:
        return a_hf.copy()
    n = a_hf.shape[0]
    chain = a_hf
    for _ in range(k - 2):
        chain = chain[..., None] * a_hf
    return (a_hf[:, :, None] * chain.reshape(1, n, -1)).reshape(n, -1)


def build_integrated_table(
    a_hf: TransitionMatrix, grid: SpotGrid, k: int, mode: str = MULTISET
) -> IntegratedVolTable:
    """Enumerate all substep paths and group them into the Vbar distribution g."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if a_hf.n_states != grid.n_states:
        raise ValidationError("transition matrix and grid disagree on the state count")
    n = grid.n_states
    paths, group_ids, n_groups, member_counts, reps = _path_layout(n, k, mode)
    probs = _path_probs(a_hf.probs, k)  # (n, n_paths)

    # Group probability mass per start state in one flattened bincount.
    flat_ids = (group_ids[None, :] + n_groups * np.arange(n)[:, None]).ravel()
    g = np.bincount(flat_ids, weights=probs.ravel(), minlength=n * n_groups).reshape(n, n_groups)
    g /= g.sum(axis=1, keepdims=True)

    if mode == MULTISET:
        # All paths in a multiset group share the same average; evaluate it on
        # the canonical (sorted) representative.
        vbar = grid.values[reps].mean(axis=1)
    else:
        path_avgs = grid.values[paths].mean(axis=1)
        vbar = np.bincount(group_ids, weights=path_avgs, minlength=n_groups) / member_counts
    return IntegratedVolTable(vbar_values=vbar, g=g, k=k, mode=mode)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _bin_masses(vbar: np.ndarray, scheme: ObservationScheme) -> np.ndarray:
    """(n_vbar, n_bins) symbol distribution when the period return is N(0, vbar[v]).

    The edge CDFs are ``specfun.gaussian_cdf(edge / sd)`` for all values at
    once, with ``math.erfc`` applied elementwise so every value is the same
    float as the scalar call.
    """
    z = scheme.edges[None, :] / np.sqrt(vbar)[:, None]
    cdf = 0.5 * _erfc(-z / math.sqrt(2.0)).astype(float)
    out = np.empty((vbar.size, scheme.n_bins))
    out[:, 0] = cdf[:, 0]
    out[:, 1:-1] = np.diff(cdf, axis=1)
    out[:, -1] = 1.0 - cdf[:, -1]
    return out


def emission_given_vbar(vbar: float, scheme: ObservationScheme) -> np.ndarray:
    """Distribution of the return symbol when the period return is N(0, vbar)."""
    if not (vbar > 0.0):
        raise ValidationError(f"vbar must be positive, got {vbar}")
    return _bin_masses(np.array([vbar], dtype=float), scheme)[0]


def build_emission_matrix(table: IntegratedVolTable, scheme: ObservationScheme) -> EmissionMatrix:
    """Mix the Gaussian bin masses over the integrated-variance distribution."""
    return EmissionMatrix(probs=table.g @ _bin_masses(table.vbar_values, scheme))


def build_classical_hmm(
    grid: SpotGrid,
    a_hf: TransitionMatrix,
    k: int,
    scheme: ObservationScheme,
    mode: str = MULTISET,
    x0: np.ndarray | None = None,
) -> ClassicalHmm:
    """Assemble the full model from a grid and a substep transition matrix.

    x0 defaults to the stationary distribution of the period-level chain.
    """
    a = matrix_power(a_hf, k)
    table = build_integrated_table(a_hf, grid, k, mode)
    emission = build_emission_matrix(table, scheme)
    if x0 is None:
        x0 = stationary_distribution(a)
    return ClassicalHmm(grid=grid, a_hf=a_hf, a=a, table=table, emission=emission, x0=x0, scheme=scheme)


def _check_order(order: str):
    if order not in _ORDERS:
        raise ValidationError(f"order must be one of {_ORDERS}, got {order!r}")


def forward_step(
    x_prev: np.ndarray, hmm: ClassicalHmm, symbol: int, order: str = WEIGHT_FIRST
):
    """One filter update; returns (next state distribution, log-likelihood increment)."""
    _check_order(order)
    e = hmm.emission.probs[:, symbol]
    if order == WEIGHT_FIRST:
        w = x_prev * e
        total = w.sum()
        if total <= 0.0:
            raise ZeroLikelihoodError(f"symbol {symbol} has zero probability")
        return (w / total) @ hmm.a.probs, math.log(total)
    xp = x_prev @ hmm.a.probs
    w = xp * e
    total = w.sum()
    if total <= 0.0:
        raise ZeroLikelihoodError(f"symbol {symbol} has zero probability")
    return w / total, math.log(total)


def log_likelihood_binned(hmm: ClassicalHmm, obs, order: str = WEIGHT_FIRST) -> float:
    """Log-probability of a symbol sequence via the forward recursion."""
    obs = np.asarray(obs, dtype=np.int64)
    if obs.size and (obs.min() < 0 or obs.max() >= hmm.n_obs):
        raise ValidationError("symbols out of range for the observation scheme")
    x = hmm.x0
    total = 0.0
    for t, symbol in enumerate(obs):
        try:
            x, inc = forward_step(x, hmm, int(symbol), order=order)
        except ZeroLikelihoodError as exc:
            raise ZeroLikelihoodError(f"zero likelihood at step {t}: {exc}", step=t) from None
        total += inc
    return total


def _continuous_state_weights(hmm: ClassicalHmm, returns):
    """Per step, the per-state weights sum_j g[i,j] phi(dy; 0, Vbar_j) and their log shift.

    Yields (weights, shift) for each return dy; the Gaussian log-normalizers
    and variances are formed once for the whole sequence, and each step works
    in one reused buffer.
    """
    vbar = hmm.table.vbar_values
    g = hmm.table.g
    log_norm = -0.5 * (math.log(2.0 * math.pi) + np.log(vbar))
    two_vbar = 2.0 * vbar
    logphi = np.empty_like(vbar)
    for dy in np.asarray(returns, dtype=float).tolist():
        np.subtract(log_norm, np.divide(dy * dy, two_vbar, out=logphi), out=logphi)
        shift = logphi.max()
        yield g @ np.exp(np.subtract(logphi, shift, out=logphi), out=logphi), shift


def log_likelihood_continuous(hmm: ClassicalHmm, returns) -> float:
    """Log-likelihood of raw returns under the Gaussian-mixture emission densities."""
    x = hmm.x0
    total = 0.0
    for e, shift in _continuous_state_weights(hmm, returns):
        w = x * e
        s = w.sum()
        total += math.log(s) + shift
        x = (w / s) @ hmm.a.probs
    return total


def filter_path(
    hmm: ClassicalHmm,
    obs=None,
    returns=None,
    order: str = WEIGHT_FIRST,
) -> FilterTrace:
    """Run the filter over symbols or raw returns, recording the predictive integrated variance.

    filtered_vbar[t] is the expectation of Vbar for period t given data up to
    t-1: x_{t-1} . (g @ vbar_values).
    """
    if (obs is None) == (returns is None):
        raise ValidationError("provide exactly one of obs or returns")
    _check_order(order)
    expected_vbar = hmm.table.g @ hmm.table.vbar_values
    seq = obs if obs is not None else returns
    n_steps = len(seq)
    states = np.empty((n_steps, hmm.n_states))
    incs = np.empty(n_steps)
    fvbar = np.empty(n_steps)
    x = hmm.x0
    weights = _continuous_state_weights(hmm, returns) if returns is not None else None
    for t in range(n_steps):
        fvbar[t] = float(x @ expected_vbar)
        if obs is not None:
            try:
                x, incs[t] = forward_step(x, hmm, int(seq[t]), order=order)
            except ZeroLikelihoodError as exc:
                raise ZeroLikelihoodError(f"zero likelihood at step {t}: {exc}", step=t) from None
        else:
            e, shift = next(weights)
            w = x * e
            s = w.sum()
            incs[t] = math.log(s) + shift
            if order == WEIGHT_FIRST:
                x = (w / s) @ hmm.a.probs
            else:
                xp = x @ hmm.a.probs
                w = xp * e
                x = w / w.sum()
        states[t] = x
    return FilterTrace(states=states, loglik_increments=incs, filtered_vbar=fvbar)


def simulate(hmm: ClassicalHmm, n_periods: int, seed):
    """Draw (spot states, integrated variances, returns, symbols) for n_periods.

    The spot chain starts from x0 and advances k substeps per period on the
    high-frequency matrix; Vbar is the average spot variance over the period's
    k new substates; the return is N(0, Vbar) and is then binned.
    """
    if n_periods < 1:
        raise ValidationError(f"n_periods must be >= 1, got {n_periods}")
    rng = np.random.default_rng(seed)
    n = hmm.n_states
    k = hmm.table.k
    cum_rows = np.cumsum(hmm.a_hf.probs, axis=1)
    cum_x0 = np.cumsum(hmm.x0)
    uniforms = rng.random(1 + n_periods * k)
    state = min(int(np.searchsorted(cum_x0, uniforms[0], side="right")), n - 1)
    spot_states = np.empty(n_periods, dtype=np.int64)
    vbars = np.empty(n_periods)
    u_idx = 1
    for t in range(n_periods):
        acc = 0.0
        for _ in range(k):
            state = min(int(np.searchsorted(cum_rows[state], uniforms[u_idx], side="right")), n - 1)
            u_idx += 1
            acc += hmm.grid.values[state]
        spot_states[t] = state
        vbars[t] = acc / k
    rets = rng.normal(0.0, np.sqrt(vbars))
    symbols = np.searchsorted(hmm.scheme.edges, rets, side="right").astype(np.int64)
    return spot_states, vbars, rets, symbols


def sequence_probability(hmm: ClassicalHmm, obs) -> float:
    """Exact probability of a symbol sequence via the observable-operator product."""
    obs = np.asarray(obs, dtype=np.int64)
    if obs.size and (obs.min() < 0 or obs.max() >= hmm.n_obs):
        raise ValidationError("symbols out of range for the observation scheme")
    v = hmm.x0.copy()
    for symbol in obs:
        v = (v * hmm.emission.probs[:, symbol]) @ hmm.a.probs
    return float(v.sum())
