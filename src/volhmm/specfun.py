"""Special-function numerics for the square-root-diffusion transition kernel.

The volatility chain needs four distribution families: the Gamma law (ergodic
law of the variance process), its quantiles (spot-state grid placement), the
noncentral chi-squared law with possibly non-integer degrees of freedom (the
one-step transition kernel), and the standard normal CDF (return binning).

Everything here is pure and deterministic. The noncentral chi-squared CDF is
the Poisson mixture

    F(x; d, lam) = sum_j  e^{-lam/2} (lam/2)^j / j!  *  P(d/2 + j, x/2)

with P the regularized lower incomplete gamma; the series is summed outward
from the Poisson mode in log space and truncated once the unaccumulated
Poisson mass drops below ``POISSON_TAIL_TOL``, which bounds the discarded CDF
mass by the same amount. The density uses the matching mixture of central
chi-squared densities (term-by-term identical to the Bessel-series form of the
kernel density), also evaluated in log space so large noncentrality cannot
overflow.

The Poisson terms (which j are visited, in what order, with what weights)
depend on the noncentrality alone, never on x. ``poisson_mixture_terms``
produces them once per law and ``noncentral_chi2_mix`` sums over them: for the
scalar CDF and density one point at a time, and for the transition-matrix
builder in ``volgrid`` one whole row of midpoints at a time, with one column of
P(d/2 + j, x_m/2) values per shape shared by every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonConvergenceError

# Fixed tolerances: these feed deterministic transition matrices downstream,
# so they are constants rather than knobs.
_INCGAMMA_EPS = 1e-16
_INCGAMMA_MAX_ITER = 500
# Near x = a the incomplete-gamma expansions need about 8 sqrt(a) terms; a cap of
# 500 + 5 sqrt(a) covers every x for shapes up to about 1e4 (small-sigma CIR grids).
# The cap stops growing at shape 1e8 (50,500 terms), so huge shapes fail in
# milliseconds instead of running for minutes.
_INCGAMMA_SQRT_ITER = 5
_INCGAMMA_SHAPE_CAP = 1e8
POISSON_TAIL_TOL = 1e-14
_POISSON_MAX_TERMS = 200_000
_QUANTILE_TOL = 1e-12
_QUANTILE_MAX_ITER = 200


@dataclass(frozen=True)
class GammaLaw:
    """Gamma distribution with shape/rate parameterization (density ~ x^{a-1} e^{-b x})."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0.0) or not (self.rate > 0.0):
            raise ValueError(f"GammaLaw requires shape > 0 and rate > 0, got {self}")

    @property
    def mean(self) -> float:
        return self.shape / self.rate


@dataclass(frozen=True)
class NoncentralChi2Law:
    """Noncentral chi-squared law; degrees of freedom may be non-integer."""

    dof: float
    noncentrality: float

    def __post_init__(self):
        if not (self.dof > 0.0):
            raise ValueError(f"dof must be > 0, got {self.dof}")
        if not (self.noncentrality >= 0.0):
            raise ValueError(f"noncentrality must be >= 0, got {self.noncentrality}")


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if not (x > 0.0):
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _incgamma_max_iter(a: float) -> int:
    return _INCGAMMA_MAX_ITER + int(_INCGAMMA_SQRT_ITER * math.sqrt(min(a, _INCGAMMA_SHAPE_CAP)))


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a, x) by the ascending series, reliable for x < a + 1.
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_incgamma_max_iter(a)):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _INCGAMMA_EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NonConvergenceError(
        f"incomplete gamma series did not converge for a={a}, x={x}"
    )


def _upper_gamma_cf(a: float, x: float) -> float:
    # Q(a, x) by the continued fraction (modified Lentz), reliable for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    if b == 0.0:  # x >= a + 1 only by rounding: the shape is too large for this expansion
        raise NonConvergenceError(
            f"incomplete gamma continued fraction has a zero first term for a={a}, x={x}"
        )
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _incgamma_max_iter(a) + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _INCGAMMA_EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NonConvergenceError(
        f"incomplete gamma continued fraction did not converge for a={a}, x={x}"
    )


def reg_inc_gamma_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), the Gamma(a, 1) CDF at x."""
    if not (a > 0.0):
        raise ValueError(f"reg_inc_gamma_lower requires a > 0, got a={a}")
    if not (x >= 0.0):
        raise ValueError(f"reg_inc_gamma_lower requires x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        p = _lower_gamma_series(a, x)
    else:
        p = 1.0 - _upper_gamma_cf(a, x)
    return min(1.0, max(0.0, p))


def gamma_cdf(x: float, law: GammaLaw) -> float:
    """CDF of the Gamma law at x."""
    if x < 0.0:
        raise ValueError(f"gamma_cdf requires x >= 0, got {x}")
    return reg_inc_gamma_lower(law.shape, law.rate * x)


def _gamma_log_pdf(x: float, law: GammaLaw) -> float:
    a, b = law.shape, law.rate
    return a * math.log(b) - math.lgamma(a) + (a - 1.0) * math.log(x) - b * x


def gamma_quantile(p: float, law: GammaLaw) -> float:
    """Inverse Gamma CDF by bracketed Newton iteration on the regularized incomplete gamma."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"gamma_quantile requires p in (0, 1), got {p}")
    # Bracket the root by doubling/halving around the mean.
    lo, hi = 0.0, law.mean
    for _ in range(_INCGAMMA_MAX_ITER):
        if gamma_cdf(hi, law) >= p:
            break
        lo = hi
        hi *= 2.0
    else:
        raise NonConvergenceError(f"could not bracket quantile p={p} for {law}")

    x = 0.5 * (lo + hi)
    for _ in range(_QUANTILE_MAX_ITER):
        f = gamma_cdf(x, law) - p
        if f > 0.0:
            hi = x
        else:
            lo = x
        if abs(f) <= _QUANTILE_TOL and (hi - lo) <= 1e-12 * max(x, 1e-300):
            return x
        step_ok = False
        if x > 0.0:
            deriv = math.exp(_gamma_log_pdf(x, law))
            if deriv > 0.0 and math.isfinite(deriv):
                x_new = x - f / deriv
                if lo < x_new < hi:
                    x = x_new
                    step_ok = True
        if not step_ok:
            x = 0.5 * (lo + hi)
    raise NonConvergenceError(
        f"gamma_quantile did not converge for p={p}, {law}; last bracket [{lo}, {hi}]"
    )


def poisson_mixture_terms(half_lam: float):
    """Poisson weights of the noncentral chi-squared mixture, in summation order.

    Returns (terms, tail): ``terms`` lists (j, w_j) with w_j = e^{-h} h^j / j!
    for h = ``half_lam``, formed in log space; ``tail`` = max(0, 1 - sum of the
    listed w_j) bounds the Poisson mass left out. The walk starts at the mode
    j = floor(h) and alternates one step down and one step up while both flanks
    run. The lower flank stops after j = 0, or after a weight below 1e-3 *
    ``POISSON_TAIL_TOL`` at j < mode; the upper flank stops after such a weight
    at j > mode + 1. The walk ends once the listed mass is within
    ``POISSON_TAIL_TOL`` of one or both flanks have stopped. h = 0 gives the
    point mass [(0, 1.0)], the central law. Which terms are visited, in what
    order and with what weights depends on h alone, so every evaluation point
    of one law can share the list.
    """
    if not (half_lam >= 0.0):
        raise ValueError(f"poisson_mixture_terms requires half_lam >= 0, got {half_lam}")
    if half_lam == 0.0:
        return [(0, 1.0)], 0.0
    log_half_lam = math.log(half_lam)
    cutoff = POISSON_TAIL_TOL * 1e-3

    def log_pois(j: int) -> float:
        return -half_lam + j * log_half_lam - math.lgamma(j + 1.0)

    mode = int(half_lam)
    terms = []
    weight_acc = 0.0
    j_down, j_up = mode, mode + 1  # the next term of each flank; None once it has stopped
    for _ in range(_POISSON_MAX_TERMS):
        if j_down is not None:
            w = math.exp(log_pois(j_down))
            terms.append((j_down, w))
            weight_acc += w
            # The lower flank is finite; once its weights vanish, the mass left
            # there is dominated by the already-negligible last weight.
            j_down = None if j_down == 0 or (w < cutoff and j_down < mode) else j_down - 1
        if j_up is not None:
            w = math.exp(log_pois(j_up))
            terms.append((j_up, w))
            weight_acc += w
            j_up = None if w < cutoff and j_up > mode + 1 else j_up + 1
        if 1.0 - weight_acc < POISSON_TAIL_TOL or (j_down is None and j_up is None):
            # Either the accumulated mass is within the tolerance, or the weights
            # are exhausted on both flanks: the unaccumulated mass is then below
            # the per-term cutoff times the number of skipped terms, itself
            # bounded by the tail tolerance.
            return terms, max(0.0, 1.0 - weight_acc)
    raise NonConvergenceError(
        f"Poisson mixture weights did not converge for half noncentrality {half_lam}"
    )


def noncentral_chi2_mix(half_dof: float, half_lam: float, term_fn):
    """Sum of w_j * term_fn(half_dof + j) over the Poisson terms of ``half_lam``.

    Returns (value, tail). half_dof and half_lam are half the degrees of freedom
    and half the noncentrality. term_fn may return an array (one value per
    evaluation point of the law); the terms are then summed elementwise, in the
    same order and with the same operations as for one point.
    """
    terms, tail = poisson_mixture_terms(half_lam)
    total = 0.0
    for j, w in terms:
        total += w * term_fn(half_dof + j)
    return total, tail


def noncentral_chi2_cdf_with_bound(x: float, law: NoncentralChi2Law):
    """CDF value together with the bound on the truncated Poisson tail mass."""
    if x < 0.0:
        raise ValueError(f"noncentral_chi2_cdf requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0, 0.0
    half_x = 0.5 * x
    value, tail = noncentral_chi2_mix(
        0.5 * law.dof, 0.5 * law.noncentrality, lambda a: reg_inc_gamma_lower(a, half_x)
    )
    return min(1.0, max(0.0, value)), tail


def noncentral_chi2_cdf(x: float, law: NoncentralChi2Law) -> float:
    """CDF of the noncentral chi-squared law at x."""
    return noncentral_chi2_cdf_with_bound(x, law)[0]


def _central_chi2_log_pdf(x: float, half_dof: float) -> float:
    return (
        (half_dof - 1.0) * math.log(x)
        - 0.5 * x
        - half_dof * math.log(2.0)
        - math.lgamma(half_dof)
    )


def noncentral_chi2_pdf(x: float, law: NoncentralChi2Law) -> float:
    """Density of the noncentral chi-squared law at x > 0.

    The Poisson mixture of central chi-squared densities is exactly the
    Bessel-series expansion of the kernel density; each term is formed in log
    space, so large noncentrality or degrees of freedom cannot overflow.
    """
    if not (x > 0.0):
        raise ValueError(f"noncentral_chi2_pdf requires x > 0, got {x}")
    value, _ = noncentral_chi2_mix(
        0.5 * law.dof, 0.5 * law.noncentrality, lambda a: math.exp(_central_chi2_log_pdf(x, a))
    )
    return max(0.0, value)


def gaussian_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
