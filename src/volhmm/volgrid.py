"""Observation bins, spot-variance grids, and transition matrices.

The variance diffusion dV = alpha (beta - V) dt + sigma sqrt(V) dW is
discretized onto a finite grid: spot states sit at quantiles of the ergodic
Gamma law (shape 2 alpha beta / sigma^2, rate 2 alpha / sigma^2), and one-step
transition probabilities are the masses of the scaled noncentral chi-squared
kernel between the midpoints of neighboring grid values, with the outermost
midpoints pushed to +-infinity so each row sums to one. A fully parameterized
(non-parametric) alternative fills each row from n_L - 1 free entries plus the
complement.

Returns are discretized by an ordered bin scheme whose two edge bins are
unbounded; interior bins are equal-width by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, ValidationError
from .specfun import GammaLaw, gamma_quantile, noncentral_chi2_cdf_grid

_ROW_SUM_TOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CirParams:
    """Square-root variance diffusion parameters: mean-reversion rate, long-run level, vol-of-vol."""

    alpha: float
    beta: float
    sigma: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0 and self.sigma > 0.0):
            raise ValidationError(f"CirParams must be strictly positive, got {self}")


@dataclass(frozen=True)
class ObservationScheme:
    """Ordered return bins: n_O - 1 strictly increasing cut points, unbounded edge bins."""

    edges: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 1:
            raise ValidationError("ObservationScheme needs at least one edge (n_O >= 2)")
        if not np.all(np.diff(edges) > 0.0):
            raise ValidationError(f"bin edges must be strictly increasing, got {edges}")
        object.__setattr__(self, "edges", _freeze(edges))

    @property
    def n_bins(self) -> int:
        return self.edges.size + 1


@dataclass(frozen=True)
class SpotGrid:
    """Ascending positive spot-variance values, one per hidden state."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValidationError("SpotGrid needs a 1-d value array")
        if not np.all(values > 0.0):
            raise ValidationError("spot-variance values must be positive")
        if not np.all(np.diff(values) > 0.0):
            raise ValidationError("spot-variance values must be strictly increasing")
        object.__setattr__(self, "values", _freeze(values))

    @property
    def n_states(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix (row = from-state) together with the time step it represents."""

    probs: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValidationError(f"transition matrix must be square, got shape {probs.shape}")
        lo, hi = probs.min(), probs.max()  # nan when an entry is nan
        if not (lo >= -1e-15 and hi <= 1.0 + 1e-12):
            raise ValidationError(
                f"transition probabilities must be finite and lie in [0, 1], got [{lo}, {hi}]"
            )
        row_err = np.max(np.abs(probs.sum(axis=1) - 1.0))
        if row_err > _ROW_SUM_TOL:
            raise ValidationError(f"rows must sum to 1 within {_ROW_SUM_TOL}, max error {row_err}")
        if not (self.dt > 0.0):
            raise ValidationError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "probs", _freeze(np.clip(probs, 0.0, 1.0)))

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]


def build_observation_scheme(n_obs: int, half_width: float) -> ObservationScheme:
    """Equal-width interior bins on [-half_width, half_width] plus two unbounded edge bins."""
    if n_obs < 2:
        raise ValidationError(f"need at least 2 observation bins, got {n_obs}")
    if not (half_width > 0.0):
        raise ValidationError(f"half_width must be positive, got {half_width}")
    if n_obs == 2:
        edges = np.array([0.0])
    else:
        edges = np.linspace(-half_width, half_width, n_obs - 1)
    return ObservationScheme(edges=edges)


def discretize_return(dy: float, scheme: ObservationScheme) -> int:
    """Index of the bin containing dy; a value equal to an edge goes to the right bin."""
    return int(np.searchsorted(scheme.edges, dy, side="right"))


def _finite_positive(name: str, value: float, p: CirParams) -> float:
    """``value``, which a CIR law at ``p`` divides by or is parameterised by; ValidationError
    where it has under- or overflowed."""
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{name} = {value} is not finite and positive at {p}")
    return value


def cir_ergodic_law(p: CirParams) -> GammaLaw:
    """Ergodic Gamma law of the variance diffusion: shape 2ab/s^2, rate 2a/s^2.

    Raises ValidationError where s^2, the shape or the rate is not finite and positive.
    """
    s2 = _finite_positive("sigma^2", p.sigma * p.sigma, p)
    shape = _finite_positive("the ergodic shape 2ab/s^2", 2.0 * p.alpha * p.beta / s2, p)
    rate = _finite_positive("the ergodic rate 2a/s^2", 2.0 * p.alpha / s2, p)
    return GammaLaw(shape=shape, rate=rate)


def cir_spot_grid(p: CirParams, n_states: int) -> SpotGrid:
    """Spot grid at ergodic-law quantiles (i+1)/(n_states+1), i = 0..n_states-1, solved in
    lockstep by ``specfun.gamma_quantile``."""
    if n_states < 2:
        raise ValidationError(f"need at least 2 hidden states, got {n_states}")
    law = cir_ergodic_law(p)
    return SpotGrid(values=gamma_quantile(np.arange(1, n_states + 1) / (n_states + 1), law))


def cir_transition_matrix(p: CirParams, grid: SpotGrid, dt: float) -> TransitionMatrix:
    """One-step transition matrix of the discretized variance diffusion.

    Row i, column j is the mass of the noncentral chi-squared law with dof 4ab/s^2 and
    noncentrality 2c V_i e^{-a dt}, c = 2a / ((1 - e^{-a dt}) s^2), between 2c m_{j-1} and
    2c m_j, where m_j are midpoints between neighboring grid values (+-infinity at the
    ends). The CDF F and the survival function S = 1 - F of every row at every midpoint come
    from one ``specfun.noncentral_chi2_cdf_grid`` call, each a sum of positive terms. A
    column whose upper end has F <= S is F(m_j) - F(m_{j-1}), one whose lower end has F > S
    is S(m_{j-1}) - S(m_j), and the column between is 1 - F(m_{j-1}) - S(m_j); so no mass
    is a difference of values near one, the last column is S(m_last) itself, and a row sums
    to one up to the rounding of those differences. Raises ValidationError where
    s^2 (1 - e^{-a dt}), c or dof/2 is not finite and positive.
    """
    if not (dt > 0.0):
        raise ValidationError(f"dt must be positive, got {dt}")
    s2 = p.sigma * p.sigma
    decay = math.exp(-p.alpha * dt)
    scale = _finite_positive("(1 - e^{-a dt}) s^2", (1.0 - decay) * s2, p)
    c = _finite_positive("the rate c", 2.0 * p.alpha / scale, p)
    dof = 4.0 * p.alpha * p.beta / s2
    _finite_positive("the half dof 2ab/s^2", 0.5 * dof, p)
    values = grid.values
    n = values.size
    if n == 1:
        return TransitionMatrix(probs=np.ones((1, 1)), dt=dt)
    midpoints = 0.5 * (values[:-1] + values[1:])
    cdf, sf, _ = noncentral_chi2_cdf_grid(2.0 * c * midpoints, dof, 2.0 * c * values * decay)
    below, above = np.zeros((2, n, n + 1))  # F and S at every column edge, +-infinity included
    below[:, 1:-1], below[:, -1] = cdf, 1.0
    above[:, 1:-1], above[:, 0] = sf, 1.0
    lower = below <= above
    probs = np.where(
        lower[:, 1:],
        below[:, 1:] - below[:, :-1],
        np.where(lower[:, :-1], 1.0 - below[:, :-1] - above[:, 1:], above[:, :-1] - above[:, 1:]),
    )
    return TransitionMatrix(probs=probs, dt=dt)


def nonparam_transition_matrix(theta, n_states: int, dt: float = 1.0) -> TransitionMatrix:
    """Row-stochastic matrix from n_states*(n_states-1) free entries.

    Row r is [theta_{r,0}, ..., theta_{r,n-2}, 1 - sum(row group)]; every free
    entry must lie in (0, 1) and each row group must sum below one.
    """
    theta = np.asarray(theta, dtype=float)
    expected = n_states * (n_states - 1)
    if theta.shape != (expected,):
        raise ValidationError(
            f"expected {expected} parameters for {n_states} states, got shape {theta.shape}"
        )
    groups = theta.reshape(n_states, n_states - 1)
    for r in range(n_states):
        g = groups[r]
        if np.any(g <= 0.0) or np.any(g >= 1.0):
            raise ValidationError(f"row {r}: parameters must lie in (0, 1), got {g}")
        s = g.sum()
        if s >= 1.0:
            raise ValidationError(f"row {r}: parameter group sums to {s} >= 1")
    return TransitionMatrix(probs=nonparam_rows(theta, n_states), dt=dt)


def nonparam_rows(theta, n_states: int) -> np.ndarray:
    """The (..., n, n) rows of ``nonparam_transition_matrix`` for (..., n(n-1)) free entries,
    unchecked."""
    groups = theta.reshape(theta.shape[:-1] + (n_states, n_states - 1))
    return np.concatenate([groups, 1.0 - groups.sum(axis=-1, keepdims=True)], axis=-1)


def _is_primitive(probs: np.ndarray) -> np.ndarray:
    """Per matrix of a (..., n, n) stack of row-stochastic arrays, whether it is primitive:
    the positivity pattern of repeated squares saturates by the Wielandt exponent
    (n-1)^2 + 1."""
    n = probs.shape[-1]
    positive = probs > 0.0
    if positive.all():  # a positive matrix is primitive
        return np.ones(probs.shape[:-2], dtype=bool)
    pattern = positive.astype(float)
    exponent, wielandt = 1, (n - 1) * (n - 1) + 1
    while exponent < wielandt and not pattern.all():
        pattern = (pattern @ pattern > 0.0).astype(float)  # sums of at most n 0/1 terms: exact
        exponent *= 2
    return pattern.all(axis=(-2, -1))


def stationary_distribution(a: TransitionMatrix) -> np.ndarray:
    """pi with pi (I - A) = 0, sum(pi) = 1, by Grassmann-Taksar-Heyman elimination.

    It uses only off-diagonal entries and never subtracts (Stewart 1994), so pi
    is nonnegative and accurate even for self-transitions near one. Raises
    NonConvergenceError for reducible or periodic chains (no unique law).
    """
    rows, pi = _gth(a.probs[None])
    if not rows.size:
        raise NonConvergenceError(
            "chain is reducible or periodic; stationary distribution is not well-defined"
        )
    return _freeze(pi[0])


def _gth(probs: np.ndarray):
    """``stationary_distribution`` of each primitive chain of a (B, n, n) stack of
    row-stochastic arrays: (rows, pi), the indices of those chains and their laws.

    The elimination runs on the whole stack; each chain sees the operations it sees
    alone, down to the dot product of each back-substitution step, one (1, k) @ (k, 1)
    product per chain.
    """
    rows = _is_primitive(probs).nonzero()[0]
    p = probs[rows].astype(float, copy=False)  # the gather is a copy already
    n = p.shape[-1]
    for k in range(n - 1, 0, -1):
        # Censor state k: its transitions to lower states feed the paths through it.
        p[:, :k, k] /= p[:, k, :k].sum(axis=-1, keepdims=True)
        p[:, :k, :k] += p[:, :k, k, None] * p[:, k, None, :k]
    pi = np.ones((len(p), n))
    for k in range(1, n):
        pi[:, k] = (pi[:, None, :k] @ p[:, :k, k, None])[:, 0, 0]
    return rows, pi / pi.sum(axis=-1, keepdims=True)


def matrix_power(a: TransitionMatrix, k: int) -> TransitionMatrix:
    """k-step transition matrix A^k, with dt scaled by k."""
    if k < 1:
        raise ValidationError(f"power must be >= 1, got {k}")
    powered = np.linalg.matrix_power(a.probs, k)
    return TransitionMatrix(probs=powered, dt=a.dt * k)
