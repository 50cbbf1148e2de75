"""Special-function numerics for the square-root-diffusion transition kernel.

The volatility chain needs four distribution families: the Gamma law (ergodic
law of the variance process), its quantiles (spot-state grid placement), the
noncentral chi-squared law with possibly non-integer degrees of freedom (the
one-step transition kernel), and the standard normal CDF (return binning).

Everything here is pure and deterministic. The noncentral chi-squared law is
the Poisson mixture

    F(x; d, lam) = sum_j  e^{-lam/2} (lam/2)^j / j!  *  P(d/2 + j, x/2)

with P the regularized lower incomplete gamma. ``noncentral_chi2_cdf_grid`` sums
it in Ding's positive-term form (Appl. Statist. 41(2), 1992): since
P(d/2 + j, x/2) is the tail from j of the terms t_k = (x/2)^(d/2+k) e^(-x/2) /
Gamma(d/2+k+1), F = sum_k t_k V(k) with V the Poisson CDF, and 1 - F is a
positive sum too. The t_k of every point form one table that every law shares,
and the Poisson weights of every law a second; both are Poisson probabilities in
Loader's saddle-point form, and one ``np.einsum`` contracts them. The table
spans every law's window of mass 1 - POISSON_TAIL_TOL or more and the terms of
every point down to 2^-53 of the largest; the scalar CDF is the one-law,
one-point case, and the CIR transition matrix in ``volgrid`` the one-law-per-row
case. The density sums the matching mixture of central chi-squared densities
(term-by-term the Bessel-series form of the kernel density) over the law's
Poisson terms, walked outward from the mode in log space until the mass left
is below ``POISSON_TAIL_TOL``.

P(a, x) is computed for whole arrays of (a, x) pairs: the ascending series
(x < a + 1) in chunks of iterations, with ``np.add.accumulate`` and
``np.multiply.accumulate`` stepping every pair at once, and the continued
fraction (x >= a + 1) by the modified Lentz method, one pair at a time (DiDonato
& Morris, ACM TOMS 12(4), 1986). Accumulation is sequential, so each pair gets
the floats of a scalar loop, and stops at its own first negligible term. The
prefactor exp(-x + a ln x - lgamma(a)) is formed with ``math`` functions:
``lgamma`` once per shape, ``log`` once per point, ``exp`` once per pair. The
scalar P(a, x) is the one-pair case. Gamma quantiles are Halley steps on it from
DiDonato & Morris's first approximation, all of a grid's quantiles in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError

# Arrays of one chunk of an array pass (a series chunk) and, in
# chmm, the chain products of one block of a batched build; weights and ids of
# one bincount; the Gaussian kernel of one block of returns; the substep maps of
# one block of a batched draw.
BLOCK_BYTES = 1 << 20

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
# The arrays of one chunk of the incomplete-gamma series (the n, term and total
# accumulations, their input and the stop test: about 48 bytes per iteration and pair) stay
# within a quarter of BLOCK_BYTES. A cir fit builds its table and runs its filter in
# blocks of BLOCK_BYTES right after, in the heap these chunks leave free; full-size
# chunks were no faster and raised the fit's peak resident set by about 0.5 MB.
_SERIES_CHUNK_ITEMS = BLOCK_BYTES // 4 // 48
# Series iterations in the first chunk of a block of pairs; each later chunk of the
# pairs still running is twice as long, within the same size.
_SERIES_FIRST_CHUNK = 32
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


def _elementwise(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of every element of ``values``, one Python call each, in its shape."""
    return np.array([fn(v) for v in values.ravel().tolist()], dtype=float).reshape(values.shape)


def _lower_gamma_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Ascending-series sums of P(a, x) / prefactor for 1-D arrays of pairs with 0 < x < a + 1.

    Per pair the series is term = 1/a, total = term, n = a, then n += 1, term *=
    x / n, total += term until term < total eps (both are positive), within
    ``_incgamma_max_iter(a)`` iterations. A chunk runs its iterations for every pair
    of a block at once: n, term and total are sequential accumulations down the
    chunk's rows, so each pair gets the floats of that loop, and the pairs still
    running go on to a chunk twice as long. A block holds as many pairs as a first
    chunk of ``_SERIES_FIRST_CHUNK`` iterations allows within ``_SERIES_CHUNK_ITEMS``.
    """
    out = np.empty(a.size)
    per_block = _SERIES_CHUNK_ITEMS // (_SERIES_FIRST_CHUNK + 1)
    for start in range(0, a.size, per_block):
        ids = np.arange(start, min(start + per_block, a.size))
        n = a[ids]
        term = total = 1.0 / n
        done, length = 0, _SERIES_FIRST_CHUNK
        while True:
            length = min(length, _SERIES_CHUNK_ITEMS // ids.size - 1)
            steps = np.ones((length + 1, ids.size))
            steps[0] = n
            ns = np.add.accumulate(steps, axis=0)
            steps[0] = term
            np.divide(x[ids], ns[1:], out=steps[1:])
            terms = np.multiply.accumulate(steps, axis=0)
            term = terms[-1]
            terms[0] = total
            totals = np.add.accumulate(terms, axis=0)
            stop = terms[1:] < totals[1:] * _INCGAMMA_EPS
            hit = stop.any(axis=0)
            first = stop.argmax(axis=0)
            if done + length >= _INCGAMMA_MAX_ITER:  # the least cap is reachable
                caps = [_incgamma_max_iter(v) for v in a[ids].tolist()]
                iterations = done + np.where(hit, first + 1, length)
                failed = (iterations > caps) | (~hit & (iterations == caps))
                if failed.any():
                    i = ids[failed.argmax()]
                    raise NonConvergenceError(
                        f"incomplete gamma series did not converge for a={a[i]}, x={x[i]}"
                    )
            out[ids[hit]] = totals[first[hit] + 1, hit]
            if hit.all():
                break
            running = ~hit
            n, term, total = ns[-1, running], term[running], totals[-1, running]
            ids = ids[running]
            done += length
            length *= 2
    return out


def _upper_gamma_cf(a: float, x: float) -> float:
    """Continued-fraction value of Q(a, x) / prefactor (modified Lentz), for x >= a + 1."""
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
            return h
    raise NonConvergenceError(
        f"incomplete gamma continued fraction did not converge for a={a}, x={x}"
    )


def reg_inc_gamma_lower(a, x):
    """Regularized lower incomplete gamma P(a, x), the Gamma(a, 1) CDF at x.

    a and x are floats, or arrays that broadcast together; a float comes back for
    two floats. ``math.lgamma`` runs once per element of a and ``math.log`` once per
    element of x, so on an outer grid (a[:, None], x[None, :]) each shape and each
    point costs one call; ``math.exp`` runs once per pair.
    """
    a_arr = np.asarray(a, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if not (a_arr > 0.0).all():
        raise ValueError(f"reg_inc_gamma_lower requires a > 0, got a={a}")
    if not (x_arr >= 0.0).all():
        raise ValueError(f"reg_inc_gamma_lower requires x >= 0, got x={x}")
    # -x + a ln x - lgamma(a), the log of the prefactor
    exponent = (
        -x_arr
        + a_arr * _elementwise(lambda v: math.log(v) if v > 0.0 else 0.0, x_arr)
        - _elementwise(math.lgamma, a_arr)
    )
    pair_a = np.empty(exponent.shape)
    pair_a[...] = a_arr
    pair_x = np.empty(exponent.shape)
    pair_x[...] = x_arr
    series = pair_x < pair_a + 1.0
    cf = ~series
    p = np.zeros(exponent.shape)  # P(a, 0) = 0
    run = series & (pair_x > 0.0)
    p[run] = _lower_gamma_series(pair_a[run], pair_x[run])
    any_cf = cf.any()
    if any_cf:
        p[cf] = [_upper_gamma_cf(u, v) for u, v in zip(pair_a[cf].tolist(), pair_x[cf].tolist())]
    # After the expansions, whose failures come first: exp may overflow where they cannot converge.
    p *= _elementwise(math.exp, exponent)
    if any_cf:
        p[cf] = 1.0 - p[cf]
    p = np.minimum(1.0, np.maximum(0.0, p))
    return float(p) if p.ndim == 0 else p


def gamma_cdf(x, law: GammaLaw):
    """CDF of the Gamma law at x, a float or an array of points."""
    x_arr = np.asarray(x, dtype=float)
    if (x_arr < 0.0).any():
        raise ValueError(f"gamma_cdf requires x >= 0, got {x}")
    return reg_inc_gamma_lower(law.shape, law.rate * x_arr)


def _gamma_quantile_start(a: float, p: np.ndarray) -> np.ndarray:
    """DiDonato & Morris's first approximations to the root z of P(a, z) = p (ACM TOMS 12(4),
    1986): for a > 1 their Eq. 31, a Cornish-Fisher expansion in s, the normal quantile of p
    (Abramowitz & Stegun 26.2.22), with Eq. 21's small-z inversion of the series where Eq. 31
    falls below 0.15 (a + 1); for a <= 1, Eq. 21, 22 or 23 by b = (1 - p) Gamma(a), as they
    choose."""
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.exp((np.log(p) + math.lgamma(a + 1.0)) / a)
        eq21 = u / (1.0 - u / (a + 1.0))
        if a > 1.0:
            t = np.sqrt(-2.0 * np.log(np.minimum(p, q)))
            s = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
            s = np.where(p < 0.5, -s, s)
            ra = math.sqrt(a)
            w = (a + s * ra + (s * s - 1.0) / 3.0 + (s**3 - 7.0 * s) / (36.0 * ra)
                 - (3.0 * s**4 + 7.0 * s * s - 16.0) / (810.0 * a)
                 + (9.0 * s**5 + 256.0 * s**3 - 433.0 * s) / (38880.0 * a * ra))
            return np.where(w < 0.15 * (a + 1.0), eq21, w)
        b = q * math.gamma(a)
        t = np.exp(-0.5772156649015329 - b)  # Euler's constant
        eq22 = t * np.exp(t * np.exp(t))
        y = -np.log(b)
        v = y - (1.0 - a) * np.log(y)
        eq23 = y - (1.0 - a) * np.log(v) - np.log1p((1.0 - a) / (1.0 + v))
    return np.where((b > 0.6) | ((b >= 0.45) & (a >= 0.3)), eq21,
                    np.where((a < 0.3) & (b >= 0.35), eq22, eq23))


def gamma_quantile(p, law: GammaLaw):
    """Inverse Gamma CDF by Halley steps from DiDonato & Morris's start, safeguarded by a bracket.

    p is a probability or a 1-D array of them. The quantiles are solved in lockstep: each
    round makes one ``gamma_cdf`` call on the points of the quantiles still running and
    steps each of them as if it ran alone, so a quantile gets the same floats alone or in an
    array. From x, with f = F(x) - p and the density g, the Halley step is
    (f / g) / (1 - (f / g) ((a - 1) / x - rate) / 2). Each evaluation moves the bracket's
    lower end (f <= 0) or its upper end to x; a step that leaves the open bracket is replaced
    by its midpoint, or by 2x while no upper end is known. A quantile is returned as x minus
    its step once the step is at most 1e-12 x; Halley converges cubically, so that last step
    leaves the root to the rounding of F. A 16-state spot grid takes three or four calls.
    """
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    outside = ~((ps > 0.0) & (ps < 1.0))
    if outside.any():
        raise ValueError(f"gamma_quantile requires p in (0, 1), got {ps[outside][0]}")
    a, rate = law.shape, law.rate
    x = _gamma_quantile_start(a, ps) / rate
    x = np.where((x > 0.0) & (x < math.inf), x, law.mean)  # Eq. 21 underflows at tiny shapes
    lo, hi = np.zeros(ps.size), np.full(ps.size, math.inf)
    ids = np.arange(ps.size)
    out = np.empty(ps.size)
    log_pdf_const = a * math.log(rate) - math.lgamma(a)
    for _ in range(_QUANTILE_MAX_ITER):
        f = gamma_cdf(x, law) - ps[ids]
        below = f <= 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        with np.errstate(all="ignore"):  # a density that underflows gives no step: the bracket steps
            ratio = f / np.exp(log_pdf_const + (a - 1.0) * np.log(x) - rate * x)
            step = ratio / (1.0 - 0.5 * ratio * ((a - 1.0) / x - rate))
        x_new = x - step
        done = np.abs(step) <= _QUANTILE_TOL * x
        out[ids[done]] = x_new[done]
        if done.all():
            return float(out[0]) if np.ndim(p) == 0 else out
        run = ~done
        ids, x, x_new, lo, hi = ids[run], x[run], x_new[run], lo[run], hi[run]
        x = np.where((lo < x_new) & (x_new < hi), x_new, np.where(hi < math.inf, 0.5 * (lo + hi), 2.0 * x))
    raise NonConvergenceError(
        f"gamma_quantile did not converge for p={ps[ids[0]]}, {law}; last bracket [{lo[0]}, {hi[0]}]"
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
    mode = int(half_lam)
    terms = []
    weight_acc = 0.0
    j_down, j_up = mode, mode + 1  # the next term of each flank; None once it has stopped
    for _ in range(_POISSON_MAX_TERMS):
        if j_down is not None:
            w = math.exp(-half_lam + j_down * log_half_lam - math.lgamma(j_down + 1.0))
            terms.append((j_down, w))
            weight_acc += w
            # The lower flank is finite; once its weights vanish, the mass left
            # there is dominated by the already-negligible last weight.
            j_down = None if j_down == 0 or (w < cutoff and j_down < mode) else j_down - 1
        if j_up is not None:
            w = math.exp(-half_lam + j_up * log_half_lam - math.lgamma(j_up + 1.0))
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


def _poisson_pmf(a: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """e^{-lam} lam^a / Gamma(a + 1) for a sorted 1-D array a >= 0 and a column lam >= 0.

    Up to a = 15 it is the product of lam^a, e^{-lam} and 1 / Gamma(a + 1). Above, it is
    Loader's saddle-point form exp(-stirlerr(a) - bd0) / sqrt(2 pi a), with
    bd0 = a log1p((a - lam) / lam) - (a - lam) and the five-term Stirling series for
    stirlerr (Loader, "Fast and accurate computation of binomial probabilities", 2000): no
    exponent is formed from terms of size a ln lam, so the error stays a few ulps where
    exp(a ln lam - lam - lgamma(a + 1)) loses a ln lam ulps.
    """
    out = np.empty(np.broadcast_shapes(a.shape, lam.shape))
    split = int(np.searchsorted(a, 15.0, side="right"))
    small, big = a[:split], a[split:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        gammas = [math.gamma(v + 1.0) for v in small.tolist()]
        out[..., :split] = lam**small * np.exp(-lam) / gammas
        nn = 1.0 / (big * big)
        stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - nn / 1188) * nn) * nn) * nn) / big
        d = big - lam
        out[..., split:] = np.exp(-stirlerr - (big * np.log1p(d / lam) - d)) / np.sqrt(2.0 * math.pi * big)
    return out


def noncentral_chi2_cdf_grid(x, dof: float, noncentralities):
    """CDF and survival function of the noncentral chi-squared laws (dof, lam) at the points x.

    Returns (cdf, sf, tails): cdf[r, m] and sf[r, m] are F and 1 - F of law r at x[m], and
    tails[r] the Poisson mass of law r outside the table. With h = dof/2, y = x/2,
    mu = lam/2 and t_k(y) = y^(h+k) e^-y / Gamma(h+k+1), Ding's form over the table's
    k0 <= k < K is F = sum_k t_k(y) V(k) and 1 - F = Q(h + k0, y) W + sum_k t_k(y) U(k),
    where V(k), U(k) and W are a law's Poisson mass at j <= k, at k < j < K and in all of
    [k0, K), each summed in order from its own end, so every term is positive. The table
    holds each law's window mu +- d, which by Bernstein's bound exp(-d^2 / (2 (mu + d/3)))
    leaves out at most POISSON_TAIL_TOL of its mass, and goes on until the tail of t, by its
    geometric or Gaussian bound, is below 2^-53 of t at the last window end. A point whose
    mode lies past every window adds P(h + K, y) W to F, and its 1 - F counts only the
    table's Poisson mass. Q(h + k0, y) is 1 - sum_k t_k(y), or the continued fraction where
    that is below 1e-3 or the point lies past every window. The contraction is one
    ``np.einsum``, which calls no BLAS. Raises NonConvergenceError where a window holds a
    point's mode and the series from there would outrun the incomplete-gamma cap (where the
    old per-pair series failed), or where the table would exceed _POISSON_MAX_TERMS.
    """
    h = 0.5 * dof
    y = 0.5 * np.asarray(x, dtype=float)
    mu = 0.5 * np.asarray(noncentralities, dtype=float)
    log_cut = math.log(2.0 / POISSON_TAIL_TOL)  # each side of a window leaves out e^-log_cut
    d = log_cut / 3.0 + np.sqrt(log_cut * log_cut / 9.0 + 2.0 * mu * log_cut)
    lo, hi = np.maximum(0.0, np.floor(mu - d)), np.ceil(mu + d)
    mode = np.maximum(0.0, np.ceil(y - h - 1.0))
    tail = math.log(2.0**53) + 0.5 * np.log(2.0 * math.pi * (y + 1.0)) + 1.0
    n_gauss = tail + np.sqrt(tail * tail + 2.0 * y * tail)
    # Where a window holds a point's mode, the series from there runs until its terms, which
    # fall like exp(-n^2 / (2y)), are below 2^-53 of their sum, about sqrt(pi y / 2) of the first.
    held = ((lo[:, None] <= mode) & (mode <= hi[:, None])).any(axis=0)
    need = np.sqrt(2.0 * y * np.maximum(1.0, math.log(2.0**53) - 0.5 * np.log(0.5 * math.pi * (y + 1.0))))
    for a, v, n in zip((h + mode)[held].tolist(), y[held].tolist(), need[held].tolist()):
        if n > _incgamma_max_iter(a):
            raise NonConvergenceError(
                f"incomplete gamma series did not converge for a={a}, x={v}: "
                f"{math.ceil(n)} terms past the mode, more than the cap"
            )
    past = mode > hi.max()  # the point's terms past the table enter F as P(h + stop, y)
    rho = y / (h + hi.max() + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_geom = np.where(rho < 1.0, np.log(2.0**-53 * (1.0 - rho) / rho) / np.log(rho), np.inf)
    k0 = lo.min()
    stop = hi.max() + np.ceil(np.where(past, 0.0, np.fmin(n_gauss, n_geom))).max() + 1.0
    if stop - k0 > _POISSON_MAX_TERMS:
        raise NonConvergenceError(
            f"Poisson mixture weights need more than {_POISSON_MAX_TERMS} terms for half "
            f"noncentralities up to {mu.max()} at points up to {y.max()}"
        )
    k = np.arange(k0, stop)
    t = _poisson_pmf(h + k, y[:, None])
    w = _poisson_pmf(k, mu[:, None])
    below = np.cumsum(w, axis=1)
    above = np.zeros(w.shape)  # the table's mass above k
    np.cumsum(w[:, :0:-1], axis=1, out=above[:, -2::-1])
    lower, upper = np.split(np.einsum("rk,mk->rm", np.concatenate([below, above]), t), 2)
    t_mass = t.sum(axis=1)
    q0 = 1.0 - t_mass  # Q(h + k0, y)
    cf = ((q0 < 1e-3) | past) & (y >= h + k0 + 1.0)
    if cf.any():  # the prefactor y^(h+k0) e^-y / Gamma(h+k0) is (h + k0) t_k0(y)
        a0 = h + k0
        q0[cf] = a0 * t[cf, 0] * [_upper_gamma_cf(a0, v) for v in y[cf].tolist()]
    mass = below[:, -1]
    lower += mass[:, None] * np.where(past, np.maximum(0.0, 1.0 - q0 - t_mass), 0.0)
    sf = mass[:, None] * np.maximum(q0, 0.0) + upper
    return np.minimum(1.0, lower), np.minimum(1.0, sf), np.maximum(0.0, 1.0 - mass)


def noncentral_chi2_cdf_with_bound(x: float, law: NoncentralChi2Law):
    """CDF value together with the bound on the truncated Poisson tail mass."""
    if x < 0.0:
        raise ValueError(f"noncentral_chi2_cdf requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0, 0.0
    cdf, _, tails = noncentral_chi2_cdf_grid([x], law.dof, [law.noncentrality])
    return float(cdf[0, 0]), float(tails[0])


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
    terms, _ = poisson_mixture_terms(0.5 * law.noncentrality)
    total = 0.0
    for j, w in terms:
        total += w * math.exp(_central_chi2_log_pdf(x, 0.5 * law.dof + j))
    return max(0.0, total)


def gaussian_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
