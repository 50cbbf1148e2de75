"""Observation bins, spot-variance grids, and transition matrices.

The variance diffusion dV = alpha (beta - V) dt + sigma sqrt(V) dW is
discretized onto a finite grid: spot states sit at quantiles of the ergodic
Gamma law (shape 2 alpha beta / sigma^2, rate 2 alpha / sigma^2), and one-step
transition probabilities are CDF differences of the scaled noncentral
chi-squared kernel evaluated at the midpoints between neighboring grid values,
with the outermost midpoints pushed to +-infinity so each row sums to one
exactly. A fully parameterized (non-parametric) alternative fills each row
from n_L - 1 free entries plus the complement.

Returns are discretized by an ordered bin scheme whose two edge bins are
unbounded; interior bins are equal-width by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, ValidationError
from .specfun import GammaLaw, gamma_quantile, poisson_mixture_terms, reg_inc_gamma_lower

_ROW_SUM_TOL = 1e-10
_STATIONARY_TOL = 1e-12
_STATIONARY_MAX_ITER = 100_000


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
        if np.any(probs < -1e-15) or np.any(probs > 1.0 + 1e-12):
            raise ValidationError("transition probabilities must lie in [0, 1]")
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


def cir_ergodic_law(p: CirParams) -> GammaLaw:
    """Ergodic Gamma law of the variance diffusion: shape 2ab/s^2, rate 2a/s^2."""
    s2 = p.sigma * p.sigma
    return GammaLaw(shape=2.0 * p.alpha * p.beta / s2, rate=2.0 * p.alpha / s2)


def cir_spot_grid(p: CirParams, n_states: int) -> SpotGrid:
    """Spot grid at ergodic-law quantiles (i+1)/(n_states+1), i = 0..n_states-1."""
    if n_states < 2:
        raise ValidationError(f"need at least 2 hidden states, got {n_states}")
    law = cir_ergodic_law(p)
    values = [gamma_quantile((i + 1) / (n_states + 1), law) for i in range(n_states)]
    return SpotGrid(values=np.array(values))


def cir_transition_matrix(p: CirParams, grid: SpotGrid, dt: float) -> TransitionMatrix:
    """One-step transition matrix of the discretized variance diffusion.

    Row i, column j is F(2c m_{j}) - F(2c m_{j-1}) where F is the noncentral
    chi-squared CDF with dof 4ab/s^2 and noncentrality 2c V_i e^{-a dt},
    c = 2a / ((1 - e^{-a dt}) s^2), and m_j are midpoints between neighboring
    grid values (+-infinity at the ends, so rows sum to exactly one).

    F is the Poisson mixture of ``specfun``. Row i's Poisson terms (j, w_j)
    come from ``poisson_mixture_terms`` once for all its midpoints, and the
    incomplete-gamma column P(dof/2 + j, c m) over the midpoints is computed
    once per j and shared by every row that visits j. Each row accumulates
    w_j * column in the order of its terms, which is the same sequence of
    floating-point operations as ``noncentral_chi2_cdf`` at each midpoint.
    """
    if not (dt > 0.0):
        raise ValidationError(f"dt must be positive, got {dt}")
    s2 = p.sigma * p.sigma
    decay = math.exp(-p.alpha * dt)
    c = 2.0 * p.alpha / ((1.0 - decay) * s2)
    half_dof = 0.5 * (4.0 * p.alpha * p.beta / s2)
    values = grid.values
    n = values.size
    midpoints = 0.5 * (values[:-1] + values[1:])
    half_x = (0.5 * (2.0 * c * midpoints)).tolist()  # x/2 at x = 2c m, as the scalar CDF forms it
    columns = {}
    cdf = np.empty((n, n - 1))
    for i in range(n):
        terms, _ = poisson_mixture_terms(0.5 * (2.0 * c * float(values[i]) * decay))
        total = np.zeros(n - 1)
        for j, w in terms:
            col = columns.get(j)
            if col is None:
                col = columns[j] = np.array([reg_inc_gamma_lower(half_dof + j, x) for x in half_x])
            total += w * col
        cdf[i] = np.minimum(1.0, np.maximum(0.0, total))
    probs = np.empty((n, n))
    if n == 1:
        probs[0, 0] = 1.0
    else:
        probs[:, 0] = cdf[:, 0]
        probs[:, 1:-1] = np.diff(cdf, axis=1)
        probs[:, -1] = 1.0 - cdf[:, -1]
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
    probs = np.empty((n_states, n_states))
    for r in range(n_states):
        g = groups[r]
        if np.any(g <= 0.0) or np.any(g >= 1.0):
            raise ValidationError(f"row {r}: parameters must lie in (0, 1), got {g}")
        s = g.sum()
        if s >= 1.0:
            raise ValidationError(f"row {r}: parameter group sums to {s} >= 1")
        probs[r, :-1] = g
        probs[r, -1] = 1.0 - s
    return TransitionMatrix(probs=probs, dt=dt)


def _is_primitive(probs: np.ndarray) -> bool:
    # Positivity pattern of repeated boolean squares; a row-stochastic matrix is
    # primitive iff the pattern saturates by the Wielandt exponent (n-1)^2 + 1.
    n = probs.shape[0]
    if n == 1:
        return True
    pattern = probs > 0.0
    if not pattern.any(axis=0).all():
        return False
    wielandt = (n - 1) * (n - 1) + 1
    exponent = 1
    while exponent < wielandt:
        if pattern.all():
            return True
        pattern = (pattern.astype(np.int64) @ pattern.astype(np.int64)) > 0
        exponent *= 2
    return bool(pattern.all())


def stationary_distribution(a: TransitionMatrix) -> np.ndarray:
    """Left fixed vector pi with pi A = pi, by power iteration from the uniform start.

    Raises NonConvergenceError for reducible or periodic chains, where the
    ergodic law is not unique or the iteration cannot settle.
    """
    probs = a.probs
    n = probs.shape[0]
    if not _is_primitive(probs):
        raise NonConvergenceError(
            "chain is reducible or periodic; stationary distribution is not well-defined"
        )
    pi = np.full(n, 1.0 / n)
    for _ in range(_STATIONARY_MAX_ITER):
        nxt = pi @ probs
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - pi)) < _STATIONARY_TOL:
            return _freeze(nxt)
        pi = nxt
    raise NonConvergenceError(
        f"power iteration did not converge within {_STATIONARY_MAX_ITER} iterations"
    )


def matrix_power(a: TransitionMatrix, k: int) -> TransitionMatrix:
    """k-step transition matrix A^k, with dt scaled by k."""
    if k < 1:
        raise ValidationError(f"power must be >= 1, got {k}")
    powered = np.linalg.matrix_power(a.probs, k)
    return TransitionMatrix(probs=powered, dt=a.dt * k)
