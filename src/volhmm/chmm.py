"""Classical hidden Markov model for discretely sampled stochastic volatility.

One observation period spans k high-frequency substeps of the spot-variance
chain. Conditional on the spot state at the start of a period, the integrated
variance Vbar (average spot variance over the period's k substeps) has a
discrete distribution g obtained by grouping all n_L^k substep paths; the
period return is N(0, Vbar) and is recorded as a bin symbol. The emission
matrix therefore attaches to the state at the *start* of each period,

    P(symbol s | state i) = sum_j g[i, j] * NormalBinMass(s; Vbar_j),

and the matched filter is weight-then-propagate: reweight the current state
distribution by the emission column, then push it through the period-level
transition matrix A = A_hf^k, i.e. apply the observable operator diag(e_s) A
(``ClassicalHmm.operators``) in the shared kernel of ``volhmm.operators``.
The continuous-returns filter weights by Gaussian-mixture densities instead.

Two groupings of the substep paths are supported: ``multiset`` keys paths by
the multiset of visited states (exact Vbar values, C(n_L+k-1, k) columns) and
``index-sum`` keys them by the shifted index sum (k(n_L-1)+1 columns, Vbar =
unweighted mean of the member paths' averages).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import operators
from .errors import EnumerationCapError, ValidationError, ZeroLikelihoodError
from .seeds import streams
from .specfun import BLOCK_BYTES
from .volgrid import (
    _ROW_SUM_TOL,
    ObservationScheme,
    SpotGrid,
    TransitionMatrix,
    _freeze,
    _gth,
    matrix_power,
    stationary_distribution,
)

ENUMERATION_CAP = 10_000_000

MULTISET = "multiset"
INDEX_SUM = "index-sum"
_MODES = (MULTISET, INDEX_SUM)


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
        if not np.all((vbar > 0.0) & (vbar < math.inf)):  # false on nan too
            raise ValidationError("integrated-variance values must be finite and positive")
        if g.ndim != 2 or g.shape[1] != vbar.size:
            raise ValidationError("g must be (n_states, n_vbar)")
        row_err = np.max(np.abs(g.sum(axis=1) - 1.0))  # nan or inf when an entry is not finite
        if not row_err <= _ROW_SUM_TOL:
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
        lo = probs.min()  # nan when an entry is nan
        if not lo >= -1e-15:
            raise ValidationError(
                f"emission probabilities must be finite and nonnegative, got {lo}"
            )
        row_err = np.max(np.abs(probs.sum(axis=1) - 1.0))
        if not row_err <= _ROW_SUM_TOL:  # an infinite entry makes it nan or inf
            raise ValidationError(f"emission rows must sum to 1, max error {row_err}")
        object.__setattr__(self, "probs", _freeze(np.clip(probs, 0.0, 1.0)))


@dataclass(frozen=True)
class ClassicalHmm:
    """Spot grid, substep transition matrix, Vbar table, emissions and start law.

    The period matrix ``a = a_hf^k`` is formed here; x0 defaults to its stationary law.
    """

    grid: SpotGrid
    a_hf: TransitionMatrix
    table: IntegratedVolTable
    emission: EmissionMatrix
    scheme: ObservationScheme
    x0: np.ndarray | None = None
    a: TransitionMatrix = field(init=False)

    def __post_init__(self):
        n = self.grid.n_states
        if self.a_hf.n_states != n:
            raise ValidationError(f"a_hf has {self.a_hf.n_states} states, grid has {n}")
        if self.table.n_states != n or self.emission.probs.shape[0] != n:
            raise ValidationError("table/emission state dimension mismatch")
        if self.emission.probs.shape[1] != self.scheme.n_bins:
            raise ValidationError("emission symbol dimension does not match the scheme")
        a = matrix_power(self.a_hf, self.table.k)
        x0 = stationary_distribution(a) if self.x0 is None else np.asarray(self.x0, dtype=float)
        if x0.shape != (n,) or not (x0.min() >= 0.0 and abs(x0.sum() - 1.0) <= _ROW_SUM_TOL):
            raise ValidationError(
                f"x0 must be a probability vector over the hidden states, got {x0}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "x0", _freeze(x0))

    @property
    def n_states(self) -> int:
        return self.grid.n_states

    @property
    def n_obs(self) -> int:
        return self.scheme.n_bins

    def operators(self) -> operators.OperatorModel:
        """Operators diag(e_s) A, with start x0 and out = 1."""
        return _operator_form(self.emission.probs, self.a.probs, self.x0)


def _operator_form(emission, a, x0) -> operators.OperatorModel:
    """x0, diag(e_s) A per symbol and out = 1, of one model or of a batch on the leading axis,
    the operators formed in their step form."""
    e = np.swapaxes(emission, -1, -2)  # row s of e is the emission column e_s
    n = a.shape[-1]
    step_ops = np.empty(e.shape[:-1] + (n, n + 1))
    np.multiply(e[..., :, :, None], a[..., None, :, :], out=step_ops[..., :-1])
    return operators.OperatorModel.stepped(x0, step_ops, np.ones(n))


@dataclass(frozen=True)
class ClassicalBatch:
    """Models of one state count, substep count and grouping, with a leading model axis.

    Row b holds the arrays ``build_classical_hmm`` gives model b alone, bit for bit: the
    Vbar values and distribution g, the emission probabilities (unless built without a
    scheme), the period matrix a = a_hf^k and its stationary law x0.
    """

    vbar: np.ndarray  # (n_vbar,) when the models share one spot grid, else (B, n_vbar)
    g: np.ndarray  # (B, n_states, n_vbar)
    emission: np.ndarray | None  # (B, n_states, n_obs); None when built without a scheme
    a: np.ndarray  # (B, n_states, n_states)
    x0: np.ndarray  # (B, n_states)

    def operators(self) -> operators.OperatorModel:
        return _operator_form(self.emission, self.a, self.x0)

    def log_likelihood_continuous(self, returns) -> np.ndarray:
        """Row b's ``log_likelihood_continuous`` of returns[b], for (B, T) returns; -inf for
        a row whose filter meets a period of zero likelihood."""
        vbar = np.broadcast_to(self.vbar, self.g.shape[:1] + self.vbar.shape[-1:])
        out = np.empty(len(self.g))
        for b, parts in enumerate(zip(vbar, self.g, self.a, self.x0, returns)):
            try:
                out[b] = _returns_loglik(*parts)
            except ZeroLikelihoodError:
                out[b] = -math.inf
        return out


@dataclass
class FilterTrace:
    """Filtered state vectors, per-step log-likelihood increments, and predictive Vbar."""

    states: np.ndarray  # (T, n_states)
    loglik_increments: np.ndarray  # (T,)
    filtered_vbar: np.ndarray  # (T,)


def _digits(values: np.ndarray, n: int, k: int, dtype) -> np.ndarray:
    """(k, len(values)) base-n digits of ``values``, most significant first, as ``dtype``."""
    out = np.empty((k, len(values)), dtype=dtype)
    for j in range(k - 1, -1, -1):
        values, out[j] = np.divmod(values, n)
    return out


@lru_cache(maxsize=32)
def _path_layout(n_states: int, k: int, mode: str):
    """Substep-path index arrays shared by every table build at (n_states, k, mode).

    Returns (paths, group_ids, n_groups, member_counts, reps, first_ids) over the paths in
    lexicographic order, path number p visiting the base-n_states digits of p: paths is the
    (n_paths, k) array of state-index sequences and group_ids maps each path to its Vbar
    column (both None in multiset mode, where nothing reads them after the build), reps
    holds each multiset column's sorted path (None for index-sum), and first_ids keys each
    path by its first state and column, first_state * n_groups + column. The arrays are
    read-only but for group_ids and first_ids, which ``_grouped`` passes to ``np.bincount``:
    it copies a read-only index array on every call (0.5 MB at the preset).

    A multiset column is keyed by its sorted path read as one base-n_states integer, so the
    columns rank in the lexicographic order of their sorted paths: a key's column is the
    count of distinct keys at or below it, read off one cumsum of a presence table over the
    n_paths possible keys. No (n_paths, k) array and no sort of the keys is formed.
    """
    n_paths = n_states**k
    if n_paths > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{n_states}^{k} = {n_paths} substep paths exceeds the cap {ENUMERATION_CAP}"
        )
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
    index_dtype = np.min_scalar_type(n_paths)  # holds every path number and n_states
    digits = _digits(np.arange(n_paths, dtype=index_dtype), n_states, k,
                     np.min_scalar_type(n_states - 1))
    paths = reps = None
    if mode == INDEX_SUM:
        paths = _freeze(digits.T)
        group_ids = digits.sum(axis=0, dtype=np.int64)
        n_groups = k * (n_states - 1) + 1
    else:
        digits.sort(axis=0)
        keys = digits[0].astype(index_dtype)
        for row in digits[1:]:
            keys *= n_states
            keys += row
        del digits
        present = np.zeros(n_paths, dtype=bool)
        present[keys] = True
        rank = np.cumsum(present, dtype=index_dtype)  # 1 + column of each present key
        group_ids = rank.take(keys).astype(np.int64)
        group_ids -= 1
        del keys, rank
        n_groups = math.comb(n_states + k - 1, k)
        reps = _freeze(_digits(np.flatnonzero(present), n_states, k, np.int64).T)
    member_counts = np.bincount(group_ids, minlength=n_groups)
    # path p starts at state p // n^(k-1), so its rows of n^(k-1) paths share one offset
    first_ids = group_ids.reshape(n_states, -1) + (np.arange(n_states) * n_groups)[:, None]
    return (
        paths,
        None if paths is None else group_ids,
        n_groups,
        _freeze(member_counts),
        reps,
        first_ids.reshape(-1),
    )


def _chain_products(a_hf: np.ndarray, k: int) -> np.ndarray:
    """(..., n_paths) chain product a[p0,p1] a[p1,p2] ... a[p_{k-2},p_{k-1}] of each substep
    path, for a (..., n_states, n_states) stack of substep matrices; 1 for every path at k = 1.

    Paths are in lexicographic order, as in ``_path_layout``. The product is built one
    outer product per substep, left to right.
    """
    *batch, n, _ = a_hf.shape
    if k == 1:
        return np.ones((*batch, n))
    chain = a_hf
    for depth in range(1, k - 1):
        chain = chain[..., None] * a_hf.reshape(*batch, *(1,) * depth, n, n)
    return chain.reshape(*batch, -1)


def _grouped(weights: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Sums of each row of ``weights`` (R, n_paths) over the paths of each group: (R, n_groups).

    One bincount per block of rows, each row's ids offset by n_groups times its place in
    the block, so a group adds its paths in the order a one-row bincount does. A block's
    weights and ids stay within BLOCK_BYTES; a row above that goes alone, on the shared ids.
    """
    rows, n_paths = weights.shape
    step = max(1, BLOCK_BYTES // ((weights.itemsize + group_ids.itemsize) * n_paths))
    out = np.empty((rows, n_groups))
    for r0 in range(0, rows, step):
        block = weights[r0 : r0 + step]
        m = len(block)
        ids = group_ids if m == 1 else (group_ids + n_groups * np.arange(m)[:, None]).ravel()
        out[r0 : r0 + m] = np.bincount(
            ids, weights=block.ravel(), minlength=m * n_groups
        ).reshape(m, n_groups)
    return out


def _vbar_values(values: np.ndarray, k: int, mode: str) -> np.ndarray:
    """Vbar column values (..., n_vbar) of spot grids (..., n_states)."""
    paths, group_ids, n_groups, member_counts, reps, _ = _path_layout(values.shape[-1], k, mode)
    if mode == MULTISET:
        # All paths in a multiset group share the same average; evaluate it on
        # the canonical (sorted) representative.
        return values[..., reps].mean(axis=-1)
    path_avgs = values[..., paths].mean(axis=-1)
    sums = _grouped(path_avgs.reshape(-1, len(paths)), group_ids, n_groups)
    return sums.reshape(*values.shape[:-1], n_groups) / member_counts


def _group_mass(a_hf: np.ndarray, k: int, mode: str) -> np.ndarray:
    """Vbar distribution g (..., n_states, n_vbar) of a stack of substep matrices.

    g[i, j] sums a_hf[i, p0] times the chain product of every path p = (p0, ...) in column
    j, factored through the first substep: g = a_hf @ H, where H[p0, j] is the bincount of
    the chain products of column j's paths that start at p0. That groups n^k products,
    not n^(k+1) path probabilities. Rows are then normalised to sum to 1.
    """
    *batch, n, _ = a_hf.shape
    _, _, n_groups, _, _, first_ids = _path_layout(n, k, mode)
    # the chain products are freed before g is formed
    h = _grouped(_chain_products(a_hf, k).reshape(-1, n**k), first_ids, n * n_groups)
    g = a_hf @ h.reshape(*batch, n, n_groups)
    g /= g.sum(axis=-1, keepdims=True)
    return g


def build_integrated_table(
    a_hf: TransitionMatrix, grid: SpotGrid, k: int, mode: str = MULTISET
) -> IntegratedVolTable:
    """Enumerate all substep paths and group them into the Vbar distribution g."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if a_hf.n_states != grid.n_states:
        raise ValidationError("transition matrix and grid disagree on the state count")
    return IntegratedVolTable(
        vbar_values=_vbar_values(grid.values, k, mode), g=_group_mass(a_hf.probs, k, mode),
        k=k, mode=mode,
    )


def _bin_masses(vbar: np.ndarray, scheme: ObservationScheme) -> np.ndarray:
    """(..., n_bins) symbol distribution when the period return is N(0, vbar), per vbar value.

    The edge CDFs are ``specfun.gaussian_cdf(edge / sd)`` for all values at
    once, with ``math.erfc`` applied elementwise so every value is the same
    float as the scalar call.
    """
    z = scheme.edges / np.sqrt(vbar)[..., None]
    flat = (-z / math.sqrt(2.0)).ravel().tolist()
    cdf = 0.5 * np.fromiter(map(math.erfc, flat), float, len(flat)).reshape(z.shape)
    out = np.empty(vbar.shape + (scheme.n_bins,))
    out[..., 0] = cdf[..., 0]
    out[..., 1:-1] = np.diff(cdf, axis=-1)
    out[..., -1] = 1.0 - cdf[..., -1]
    return out


def grid_emissions(values: np.ndarray, k: int, scheme: ObservationScheme | None,
                   mode: str = MULTISET):
    """Vbar values (..., n_vbar) of spot grids (..., n_states) and their bin masses
    (..., n_vbar, n_bins), None without a scheme: what a batched build needs of the grids."""
    vbar = _vbar_values(values, k, mode)
    return vbar, None if scheme is None else _bin_masses(vbar, scheme)


def emission_given_vbar(vbar: float, scheme: ObservationScheme) -> np.ndarray:
    """Distribution of the return symbol when the period return is N(0, vbar)."""
    if not (vbar > 0.0):
        raise ValidationError(f"vbar must be positive, got {vbar}")
    return _bin_masses(np.array([vbar], dtype=float), scheme)[0]


def build_emission_matrix(table: IntegratedVolTable, scheme: ObservationScheme) -> EmissionMatrix:
    """Mix the Gaussian bin masses over the integrated-variance distribution."""
    return EmissionMatrix(probs=table.g @ _bin_masses(table.vbar_values, scheme))


def build_classical_batches(a_hf: np.ndarray, k: int, scheme: ObservationScheme | None,
                            mode: str, values: np.ndarray, emissions=None):
    """The models of substep matrices a_hf (B, n, n), a block of models at a time.

    ``values`` is the spot grid every model shares (n,), with its ``grid_emissions`` in
    ``emissions`` when the caller has them, or each model's grid (B, n). Yields (rows,
    batch): the indices of the block's models that built and a ClassicalBatch of them. A
    model whose period chain has no unique stationary law is left out. Without a scheme
    the batches hold no emission (the returns filter reads none), and no bin masses are
    formed. A block's tables, emissions, period matrices and stationary laws are computed at
    once, each model's on the operations ``ClassicalHmm`` runs on it alone. A block's
    chain products (n^k per model) stay within BLOCK_BYTES; a model above that goes alone.
    """
    shared = values.ndim == 1
    if shared and emissions is None:
        emissions = grid_emissions(values, k, scheme, mode)
    n = a_hf.shape[-1]
    per_block = max(1, BLOCK_BYTES // (a_hf.itemsize * n**k))
    for b0 in range(0, len(a_hf), per_block):
        stop = b0 + per_block
        rows, batch = _classical_block(
            a_hf[b0:stop], k, scheme, mode, None if shared else values[b0:stop], emissions
        )
        if rows.size:
            yield b0 + rows, batch


def _classical_block(a_hf, k, scheme, mode, values, emissions):
    """One block of ``build_classical_batches``: (rows that built, their ClassicalBatch).

    The grid emissions are ``emissions`` (shared), else those of the block's grids
    ``values``, formed after the chain products are gone."""
    g = _group_mass(a_hf, k, mode)
    vbar, masses = emissions or grid_emissions(values, k, scheme, mode)
    emission = None if masses is None else np.clip(g @ masses, 0.0, 1.0)
    # as matrix_power and stationary_distribution on each model's TransitionMatrix, on the stack
    a = np.clip(np.linalg.matrix_power(a_hf, k), 0.0, 1.0)
    rows, x0 = _gth(a)
    keep = slice(None) if len(rows) == len(a) else rows  # no copies when every model built
    if vbar.ndim > 1:
        vbar = vbar[keep]
    if emission is not None:
        emission = emission[keep]
    return rows, ClassicalBatch(vbar, g[keep], emission, a[keep], x0)


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
    table = build_integrated_table(a_hf, grid, k, mode)
    emission = build_emission_matrix(table, scheme)
    return ClassicalHmm(grid=grid, a_hf=a_hf, table=table, emission=emission, scheme=scheme, x0=x0)


def log_likelihood_binned(hmm: ClassicalHmm, obs) -> float:
    """Log-probability of a symbol sequence via the forward recursion."""
    return operators.log_likelihood(hmm.operators(), obs)


def _returns_steps(vbar, g, a, x0, returns):
    """The returns filter: per return dy, yields (log-likelihood increment, next state).

    A state's weight is sum_j g[i,j] phi(dy; 0, Vbar_j), taken relative to the bound
    max_j log_norm_j - dy^2 / (2 Vmax) on the period's Gaussian log-densities, which the
    increment adds back. The normalisers exp(log_norm_j - max log_norm) are folded into g
    once; a block of BLOCK_BYTES // (8 n_vbar) periods then forms its kernel
    exp(dy^2 (1/(2 Vmax) - 1/(2 Vbar_j))), every exponent <= 0, in one pass and the state
    weights in one product with the folded g. The state recursion runs period by period;
    a period whose weights all vanish raises ZeroLikelihoodError, as does a return whose
    square overflows.
    """
    log_norm = -0.5 * (math.log(2.0 * math.pi) + np.log(vbar))
    top = log_norm.max()
    folded = (g * np.exp(log_norm - top)).T  # (n_vbar, n_states)
    inv = 0.5 / vbar
    inv_min = inv.min()
    gap = inv_min - inv
    returns = np.asarray(returns, dtype=float)
    with np.errstate(over="ignore"):
        dy2 = returns * returns
    span = max(1, BLOCK_BYTES // (8 * vbar.size))
    kernel = np.empty((min(span, dy2.size), vbar.size))
    x = x0
    for t0 in range(0, dy2.size, span):
        block = dy2[t0 : t0 + span]
        e = kernel[: block.size]
        with np.errstate(invalid="ignore"):  # inf * 0: an overflowed dy^2, raised below
            np.exp(np.multiply.outer(block, gap, out=e), out=e)
        shifts = (top - block * inv_min).tolist()
        for t, (weight, shift) in enumerate(zip(e @ folded, shifts), t0):
            w = x * weight
            s = w.sum()
            if not s > 0.0:  # every density underflowed, or dy^2 overflowed
                raise ZeroLikelihoodError(
                    f"zero likelihood at period {t} (return {float(returns[t])})", step=t
                )
            x = (w / s) @ a
            yield math.log(s) + shift, x


def _returns_loglik(vbar, g, a, x0, returns) -> float:
    total = 0.0
    for inc, _ in _returns_steps(vbar, g, a, x0, returns):
        total += inc
    return total


def _parts(hmm: ClassicalHmm) -> tuple:
    return hmm.table.vbar_values, hmm.table.g, hmm.a.probs, hmm.x0


def log_likelihood_continuous(hmm: ClassicalHmm, returns) -> float:
    """Log-likelihood of raw returns under the Gaussian-mixture emission densities."""
    return _returns_loglik(*_parts(hmm), returns)


def filter_path(hmm: ClassicalHmm, obs=None, returns=None) -> FilterTrace:
    """Run the filter over symbols or raw returns, recording the predictive integrated variance.

    filtered_vbar[t] is the expectation of Vbar for period t given data up to
    t-1: x_{t-1} . (g @ vbar_values).
    """
    if (obs is None) == (returns is None):
        raise ValidationError("provide exactly one of obs or returns")
    if obs is not None:
        steps, states = operators.filtered(hmm.operators(), obs, keep_states=True)
        states, incs = states[:, 0], np.log(steps[0])
    else:
        states = np.empty((len(returns), hmm.n_states))
        incs = np.empty(len(returns))
        for t, (inc, x) in enumerate(_returns_steps(*_parts(hmm), returns)):
            incs[t], states[t] = inc, x
    prior = np.vstack([hmm.x0, states])[:-1]  # the state each period starts from
    expected_vbar = hmm.table.g @ hmm.table.vbar_values
    return FilterTrace(states=states, loglik_increments=incs, filtered_vbar=prior @ expected_vbar)


def simulate(hmm: ClassicalHmm, n_periods: int, seed):
    """Draw (spot states, integrated variances, returns, symbols) for n_periods.

    The spot chain starts from x0 and advances k substeps per period on the
    high-frequency matrix; Vbar is the average spot variance over the period's
    k new substates; the return is N(0, Vbar) and is then binned.
    """
    return tuple(row[0] for row in simulate_many(hmm, n_periods, [seed]))


def simulate_many(hmm: ClassicalHmm, n_periods: int, seeds):
    """``simulate`` of each seed: the four arrays with a leading row per seed, (B, n_periods).

    Seed b's generator (``seeds.streams``, the block's states seeded in one pass) draws
    1 + n_periods k uniforms, then n_periods standard normals.
    The first uniform picks the start state from x0, one per substep picks the next
    state from its transition row; a draw goes to the first state whose cumulative
    probability exceeds it (the last state, past the last sum). The return is
    0.0 + sqrt(Vbar) z, as ``Generator.normal`` forms it. A block of rows is drawn and
    walked at a time, its substep maps within BLOCK_BYTES; a row above that goes alone.
    """
    if n_periods < 1:
        raise ValidationError(f"n_periods must be >= 1, got {n_periods}")
    seeds = list(seeds)
    n, k = hmm.n_states, hmm.table.k
    n_sub = n_periods * k
    cum_x0 = np.cumsum(hmm.x0)
    cum_rows = np.cumsum(hmm.a_hf.probs, axis=1)
    cum_x0[-1] = cum_rows[:, -1] = np.inf  # no draw passes the last state
    ranked = _ranked_maps(cum_rows)
    spot_states = np.empty((len(seeds), n_periods), dtype=np.int64)
    vbars = np.empty((len(seeds), n_periods))
    normals = np.empty((len(seeds), n_periods))
    per_block = max(1, BLOCK_BYTES // (8 * n * n_sub))
    for b0 in range(0, len(seeds), per_block):
        block = seeds[b0 : b0 + per_block]
        rows = slice(b0, b0 + len(block))
        uniforms = np.empty((len(block), 1 + n_sub))
        for row, normal_row, rng in zip(uniforms, normals[rows], streams(block)):
            rng.random(out=row)
            rng.standard_normal(out=normal_row)
        start = np.searchsorted(cum_x0, uniforms[:, 0], side="right")
        path = _walk(ranked, start, uniforms[:, 1:])
        spot_states[rows] = path[:, k - 1 :: k]
        vbars[rows] = sum(hmm.grid.values[path[:, j::k]] for j in range(k)) / k  # substep order
    rets = 0.0 + np.sqrt(vbars) * normals
    symbols = np.searchsorted(hmm.scheme.edges, rets, side="right").astype(np.int64)
    return spot_states, vbars, rets, symbols


def _ranked_maps(cum_rows):
    """(sums, maps): every row's cumulative sums in one sorted array, and for each count j
    of them at or below a draw u, the substep map (n,) that takes state i to the count of
    row i's sums at or below u. A draw's map is maps[searchsorted(sums, u, "right")]: u
    ranks among n^2 sums, so n^2 + 1 maps are all there are ((n^2 + 1) n small integers,
    4 KB at 16 states)."""
    n = len(cum_rows)
    flat = cum_rows.ravel()
    order = np.argsort(flat)
    maps = np.zeros((flat.size + 1, n), dtype=np.min_scalar_type(n))
    maps[np.arange(1, flat.size + 1), order // n] = 1  # the j-th smallest sum is row order // n's
    return flat[order], maps.cumsum(axis=0, dtype=maps.dtype)


def _walk(ranked, state, uniforms):
    """Chain states (R, S) after each substep: row r starts at state[r], and substep s
    takes state i to the count of row i's cumulative sums at or below uniforms[r, s].

    A span of substeps goes at once: each substep's map i -> next state comes from
    ``_ranked_maps``, and the maps are composed by doubling, so a span costs about log2
    of its length array passes instead of one per substep. Integer maps compose exactly.
    A span's index arrays (R, S, n) stay within BLOCK_BYTES (a span has at least one
    substep).
    """
    sums, maps_by_rank = ranked
    rows, n_sub = uniforms.shape
    n = maps_by_rank.shape[1]
    path = np.empty((rows, n_sub), dtype=np.int64)
    span = max(1, BLOCK_BYTES // (8 * n * rows))
    for s0 in range(0, n_sub, span):
        u = uniforms[:, s0 : s0 + span]
        maps = maps_by_rank[np.searchsorted(sums, u, side="right")]
        flat = maps.reshape(-1)
        offsets = np.arange(0, maps.size, n).reshape(u.shape)  # where map (r, s) starts
        d = 1
        while d < u.shape[1]:  # maps[:, s] becomes map s after map s - d after ...
            maps[:, d:] = flat[offsets[:, d:, None] + maps[:, :-d]]
            d *= 2
        path[:, s0 : s0 + u.shape[1]] = flat[offsets + state[:, None]]
        state = path[:, s0 + u.shape[1] - 1]
    return path


def sequence_probability(hmm: ClassicalHmm, obs) -> float:
    """Exact probability of a symbol sequence (0 allowed)."""
    return operators.probability(hmm.operators(), obs)
