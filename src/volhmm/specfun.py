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

P(a, x) is computed for whole arrays of (a, x) pairs: the ascending series
(x < a + 1) in chunks of iterations, with ``np.add.accumulate`` and
``np.multiply.accumulate`` stepping every pair at once, and the continued
fraction (x >= a + 1) by the modified Lentz method, one pair at a time (DiDonato
& Morris, ACM TOMS 12(4), 1986). Accumulation is sequential, so each pair gets
the floats of a scalar loop, and stops at its own first negligible term. The
prefactor exp(-x + a ln x - lgamma(a)) is formed with ``math`` functions:
``lgamma`` once per shape, ``log`` once per point, ``exp`` once per pair. The
scalar P(a, x) is the one-pair case.

The Poisson terms (which j are visited, in what order, with what weights)
depend on the noncentrality alone, never on x. ``noncentral_chi2_cdf_grid``
walks the terms of every law first, evaluates P(d/2 + j, x/2) once for every
visited shape and every point, and then sums each law's mixture in its walk
order; the scalar CDF is its one-law, one-point case, and the CIR transition
matrix in ``volgrid`` its one-law-per-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError

# Arrays of one chunk of an array pass (a series chunk, a mixture block) and, in
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
_BRACKET_BATCH = 4  # bracket ends (and their midpoints) per gamma_cdf call while bracketing


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


def gamma_quantile(p, law: GammaLaw):
    """Inverse Gamma CDF by bracketed Newton iteration on the regularized incomplete gamma.

    p is a probability or a 1-D array of them. The quantiles are solved in lockstep:
    each round makes one ``gamma_cdf`` call on the points of the quantiles still
    running, then steps each of them as if it ran alone. The bracket [lo, hi] starts
    at hi = the mean, doubled (lo = the previous hi, or 0) until F(hi) >= p; the
    doubling points are the same for every p, so they are evaluated a few per call,
    up to the largest p. Newton starts at the bracket's midpoint. Each evaluation at
    x moves lo (F(x) <= p) or hi to x; a Newton step strictly inside the bracket is
    taken, otherwise the bracket is bisected. A quantile is returned once
    |F(x) - p| <= 1e-12 and either the bracket or the Newton step is at most 1e-12 x.
    The second rule ends the search once Newton has converged: from below, lo = x
    and a vanishing step no longer lands strictly inside the bracket, so the first
    rule alone would bisect some forty more times without moving the answer.
    """
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    outside = ~((ps > 0.0) & (ps < 1.0))
    if outside.any():
        raise ValueError(f"gamma_quantile requires p in (0, 1), got {ps[outside][0]}")
    # Bracket k is [ends[k], ends[k + 1]]. Its midpoint is the first Newton point of the
    # quantiles it brackets, so it is evaluated in the same call as its upper end.
    ends, end_cdfs, mid_cdfs = [0.0], [], []
    hi = law.mean
    while not end_cdfs or end_cdfs[-1] < ps.max():
        if len(end_cdfs) >= _INCGAMMA_MAX_ITER:
            raise NonConvergenceError(f"could not bracket quantile p={ps.max()} for {law}")
        his = hi * 2.0 ** np.arange(_BRACKET_BATCH)  # hi doubled k times, exactly
        los = np.concatenate([ends[-1:], his[:-1]])
        values = gamma_cdf(np.concatenate([his, 0.5 * (los + his)]), law).tolist()
        ends += his.tolist()
        end_cdfs += values[:_BRACKET_BATCH]
        mid_cdfs += values[_BRACKET_BATCH:]
        hi = 2.0 * ends[-1]
    first = np.argmax(np.array(end_cdfs)[:, None] >= ps, axis=0).tolist()
    # (p, lo, hi, x) of each quantile still running, and F at its x
    running = [
        (q, ends[k], ends[k + 1], 0.5 * (ends[k] + ends[k + 1]))
        for q, k in zip(ps.tolist(), first)
    ]
    cdf = [mid_cdfs[k] for k in first]
    ids = list(range(ps.size))
    out = np.empty(ps.size)
    a, rate = law.shape, law.rate
    log_pdf_const = a * math.log(rate) - math.lgamma(a)
    for _ in range(_QUANTILE_MAX_ITER):
        still, still_ids = [], []
        for i, (q, lo, hi, x), fx in zip(ids, running, cdf):
            f = fx - q
            if f > 0.0:
                hi = x
            else:
                lo = x
            close = abs(f) <= _QUANTILE_TOL
            if close and hi - lo <= 1e-12 * max(x, 1e-300):
                out[i] = x
                continue
            deriv = math.exp(log_pdf_const + (a - 1.0) * math.log(x) - rate * x) if x > 0.0 else 0.0
            if deriv > 0.0:
                step = f / deriv
                if close and abs(step) <= 1e-12 * x:
                    out[i] = x
                    continue
                x_new = x - step
                x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
            else:
                x = 0.5 * (lo + hi)
            still.append((q, lo, hi, x))
            still_ids.append(i)
        running, ids = still, still_ids
        if not ids:
            return float(out[0]) if np.ndim(p) == 0 else out
        cdf = gamma_cdf(np.array([x for _, _, _, x in running]), law).tolist()
    q, lo, hi, _ = running[0]
    raise NonConvergenceError(
        f"gamma_quantile did not converge for p={q}, {law}; last bracket [{lo}, {hi}]"
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


def noncentral_chi2_cdf_grid(x, dof: float, noncentralities):
    """CDF of the noncentral chi-squared laws (dof, lam) at the points x > 0.

    Returns (cdf, tails): cdf[r, m] is F(x[m]; dof, noncentralities[r]) and tails[r]
    the Poisson tail bound of law r. The Poisson terms of every law are walked first;
    P(dof/2 + j, x/2) is then evaluated once for every shape some law visits and
    every point, and each law's mixture is summed over its terms in walk order, a
    block of terms at a time (at most BLOCK_BYTES of products) with one sequential
    accumulation, so every entry gets the floats of a term-by-term scalar loop.
    """
    half_dof = 0.5 * dof
    half_x = 0.5 * np.asarray(x, dtype=float)
    walks = [poisson_mixture_terms(0.5 * lam) for lam in noncentralities]
    term_js, term_ws = zip(*[term for terms, _ in walks for term in terms])
    js, shape_ids = np.unique(term_js, return_inverse=True)
    table = reg_inc_gamma_lower(half_dof + js[:, None], half_x[None, :])
    # Row r's terms fill the first len(terms) slots; the padding has weight 0 and adds
    # +0.0 to a non-negative total.
    counts = np.array([len(terms) for terms, _ in walks])
    filled = np.arange(counts.max()) < counts[:, None]
    term_shape = np.zeros(filled.shape, dtype=np.intp)
    term_shape[filled] = shape_ids
    weights = np.zeros(filled.shape)
    weights[filled] = term_ws
    length = filled.shape[1]
    totals = np.zeros((len(walks), half_x.size))
    # the gathered columns, the products and their accumulation
    span = max(1, BLOCK_BYTES // (3 * 8 * max(1, totals.size)) - 1)
    for t0 in range(0, length, span):
        t1 = min(t0 + span, length)
        block = np.empty((len(walks), t1 - t0 + 1, half_x.size))
        block[:, 0] = totals
        np.multiply(weights[:, t0:t1, None], table[term_shape[:, t0:t1]], out=block[:, 1:])
        totals = np.add.accumulate(block, axis=1)[:, -1]
    return np.minimum(1.0, np.maximum(0.0, totals)), [tail for _, tail in walks]


def noncentral_chi2_cdf_with_bound(x: float, law: NoncentralChi2Law):
    """CDF value together with the bound on the truncated Poisson tail mass."""
    if x < 0.0:
        raise ValueError(f"noncentral_chi2_cdf requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0, 0.0
    cdf, tails = noncentral_chi2_cdf_grid([x], law.dof, [law.noncentrality])
    return float(cdf[0, 0]), tails[0]


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
