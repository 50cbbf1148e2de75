"""The vectorised model builders equal their scalar definitions.

Each reference below is the straightforward scalar form of a builder: the
emission matrix as stacked per-Vbar ``gaussian_cdf`` bin masses, the chain
products of the substep paths as a gather over the enumerated paths, and the
quantum ansatz as a per-model chain of 2x2 gates and ``np.kron`` products. These
builders reproduce the same floats, not merely close ones, and so does the
batched classical builder (``chmm.build_classical_batches``, behind
``ClassicalFitSpec.objective``), held to the one-model build row by row, so fits
and their output files do not move between one model and many.

Two builders are held to their references within rounding instead, since the
Vbar table and the returns filter were re-baselined when they became faster: the
Vbar distribution g, factored through the first substep, against the n^(k+1)
enumeration of path probabilities grouped by ``bincount``; and the blocked
returns filter against the per-step filter with the Gaussian log-densities
recomputed at every step and against an mpmath evaluation at 40 digits.

The batched draws (``chmm.simulate_many``, ``qhmm.qhmm_simulate_many``) and the
blocked Monte-Carlo KL are held to their per-seed forms: a substep walk with one
``searchsorted`` per substep, a sampler with one ``searchsorted`` and one
one-string forward step per symbol, and a KL loop that draws and scores one
trial at a time.

The fixed costs of an objective call are held to the code they replaced, kept as
``parent_*`` copies and compared byte for byte: the forward pass with its generator
gather and per-step copy of the step probabilities, the ansatz builder with a matrix
product per gate and a libm pass per angle array, and the nonparam barrier's formula
on every row.

The lockstep machinery is held to the code it replaced, bit for bit: the array
Nelder-Mead (``estimate.lockstep_nelder_mead``) to one generator per descent and
a driver that advances them one at a time, round by round and descent by
descent; the stacked primitivity check, period matrices and GTH elimination to
one chain at a time; and the forward loop that reuses its buffers to a loop that
allocates its product and state at every step.

The incomplete gamma P(a, x), computed for whole arrays of pairs, is held to the
scalar loops it replaced (the ascending series and the Lentz continued fraction,
one pair at a time). The transition matrix and the spot grid were re-baselined when
the matrix became Ding's positive-term sum and the grid Halley's root: they are held
to mpmath (``mp_ncx2_rows``, positive sums at 32 digits, and ``mpmath.findroot``),
and the code they replaced stays as the bar they must not fall below: the CDF grid
summed over each law's Poisson walk (``parent_ncx2_cdf_grid``, itself held to the
term-by-term scalar sum ``reference_ncx2_cdf``) with 1 - F in the last column, and
one bracketed Newton loop per quantile (``reference_gamma_quantile``).

The substep-path layout (``chmm._path_layout``, built from integer keys ranked by
a presence table) is held field by field to the enumeration it replaced: the n^k
paths as Python tuples, grouped by a row-wise ``np.unique`` of the sorted paths.
The bin masses (``chmm._bin_masses``, ``math.erfc`` over a list) are held byte for
byte to the ``np.frompyfunc`` object-array map they replaced (``parent_bin_masses``). The chain-product and
Vbar-table references enumerate their paths that way too, not through the code
they check.
"""

import functools
import itertools
import math

import mpmath
import numpy as np
import pytest

from conftest import random_classical_hmm
from volhmm import analysis, chmm, operators, qhmm, specfun
from volhmm.chmm import (
    INDEX_SUM,
    MULTISET,
    _chain_products,
    _path_layout,
    build_classical_batches,
    build_classical_hmm,
    build_emission_matrix,
    build_integrated_table,
    emission_given_vbar,
    filter_path,
    log_likelihood_binned,
    log_likelihood_continuous,
)
from volhmm.errors import NonConvergenceError, NumericalError, ValidationError, ZeroLikelihoodError
from volhmm.estimate import (
    ClassicalFitSpec,
    FitConfig,
    FitResult,
    QhmmFitSpec,
    RestartRecord,
    lockstep_nelder_mead,
)
from volhmm.qhmm import (
    AnsatzSpec,
    QhmmModel,
    _bit_position,
    _cnot_permutation,
    _entanglement_pairs,
    build_ansatz_unitary,
    build_qhmm,
    initial_latent_state,
    kraus_from_unitary,
    qhmm_operators,
    qhmm_simulate,
    qhmm_simulate_many,
    random_qhmm,
)
from volhmm.seeds import derive_seed
from volhmm.specfun import (
    GammaLaw,
    NoncentralChi2Law,
    gamma_cdf,
    gamma_quantile,
    gaussian_cdf,
    noncentral_chi2_cdf,
    poisson_mixture_terms,
    reg_inc_gamma_lower,
)
from volhmm.volgrid import (
    CirParams,
    ObservationScheme,
    SpotGrid,
    TransitionMatrix,
    _gth,
    build_observation_scheme,
    cir_ergodic_law,
    cir_spot_grid,
    cir_transition_matrix,
    matrix_power,
    stationary_distribution,
)


def reference_series(a, x):
    """(sum, iterations) of the ascending series of P(a, x) / prefactor, one term at a time."""
    term = 1.0 / a
    total = term
    n = a
    for i in range(1, specfun._incgamma_max_iter(a) + 1):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * 1e-16:
            return total, i
    raise NonConvergenceError(f"incomplete gamma series did not converge for a={a}, x={x}")


def reference_continued_fraction(a, x):
    """Q(a, x) / prefactor by the modified Lentz method, one pair at a time."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, specfun._incgamma_max_iter(a) + 1):
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
        if abs(delta - 1.0) < 1e-16:
            return h
    raise NonConvergenceError(
        f"incomplete gamma continued fraction did not converge for a={a}, x={x}"
    )


def reference_reg_inc_gamma_lower(a, x):
    a, x = float(a), float(x)
    if x == 0.0:
        return 0.0
    prefactor = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if x < a + 1.0:
        p = reference_series(a, x)[0] * prefactor
    else:
        p = 1.0 - reference_continued_fraction(a, x) * prefactor
    return min(1.0, max(0.0, p))


def reference_ncx2_cdf(x, law):
    """The Poisson mixture summed term by term over scalar incomplete-gamma values."""
    total = 0.0
    for j, w in poisson_mixture_terms(0.5 * law.noncentrality)[0]:
        total += w * reference_reg_inc_gamma_lower(0.5 * law.dof + j, 0.5 * x)
    return min(1.0, max(0.0, total))


def reference_gamma_quantile(p, law):
    """One quantile by the bracketed Newton loop: doubling bracket from the mean, Newton from
    its midpoint, bisection where a step leaves the bracket, and the two stopping rules."""
    lo, hi = 0.0, law.mean
    while gamma_cdf(hi, law) < p:
        lo = hi
        hi *= 2.0
    x = 0.5 * (lo + hi)
    a, b = law.shape, law.rate
    for _ in range(200):
        f = gamma_cdf(x, law) - p
        if f > 0.0:
            hi = x
        else:
            lo = x
        if abs(f) <= 1e-12 and hi - lo <= 1e-12 * max(x, 1e-300):
            return x
        deriv = math.exp(a * math.log(b) - math.lgamma(a) + (a - 1.0) * math.log(x) - b * x)
        step = f / deriv
        if abs(f) <= 1e-12 and abs(step) <= 1e-12 * x:
            return x
        x_new = x - step
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
    raise NonConvergenceError(f"no quantile for p={p}")


def cir_incomplete_gamma_pairs(p, n_states, dt):
    """(shapes, half midpoints) of every incomplete-gamma value a CIR transition matrix needs,
    as a column and a row: dof/2 + j for each Poisson term j some row visits, and c m for
    each midpoint m."""
    grid = cir_spot_grid(p, n_states)
    s2 = p.sigma * p.sigma
    decay = math.exp(-p.alpha * dt)
    c = 2.0 * p.alpha / ((1.0 - decay) * s2)
    half_dof = 0.5 * (4.0 * p.alpha * p.beta / s2)
    js = sorted({
        j for v in grid.values
        for j, _ in poisson_mixture_terms(0.5 * (2.0 * c * float(v) * decay))[0]
    })
    midpoints = 0.5 * (grid.values[:-1] + grid.values[1:])
    return (half_dof + np.array(js, dtype=float))[:, None], (0.5 * (2.0 * c * midpoints))[None, :]


def parent_ncx2_cdf_grid(x, dof, noncentralities):
    """The noncentral chi-squared CDF grid the transition matrix was built from before Ding's
    form: every law's Poisson walk, P(dof/2 + j, x/2) for every visited shape and point, and
    each law's mixture summed in walk order; each entry is ``reference_ncx2_cdf`` bit for bit."""
    half_x = 0.5 * np.asarray(x, dtype=float)
    walks = [poisson_mixture_terms(0.5 * lam) for lam in noncentralities]
    term_js, term_ws = zip(*[term for terms, _ in walks for term in terms])
    js, shape_ids = np.unique(term_js, return_inverse=True)
    table = reg_inc_gamma_lower(0.5 * dof + js[:, None], half_x[None, :])
    counts = np.array([len(terms) for terms, _ in walks])
    filled = np.arange(counts.max()) < counts[:, None]
    term_shape = np.zeros(filled.shape, dtype=np.intp)
    term_shape[filled] = shape_ids
    weights = np.zeros(filled.shape)
    weights[filled] = term_ws
    block = np.empty((len(walks), filled.shape[1] + 1, half_x.size))
    block[:, 0] = 0.0
    np.multiply(weights[:, :, None], table[term_shape], out=block[:, 1:])
    return np.minimum(1.0, np.maximum(0.0, np.add.accumulate(block, axis=1)[:, -1]))


def cir_laws(p, grid_values, dt):
    """(points, dof, noncentralities) of a CIR transition matrix, as ``cir_transition_matrix``
    forms them."""
    s2 = p.sigma * p.sigma
    decay = math.exp(-p.alpha * dt)
    c = 2.0 * p.alpha / ((1.0 - decay) * s2)
    midpoints = 0.5 * (grid_values[:-1] + grid_values[1:])
    return 2.0 * c * midpoints, 4.0 * p.alpha * p.beta / s2, 2.0 * c * grid_values * decay


def parent_transition(p, grid, dt):
    """The transition matrix as CDF differences with 1 - F in the last column, the form it had
    before Ding's."""
    cdf = parent_ncx2_cdf_grid(*cir_laws(p, grid.values, dt))
    return np.diff(cdf, axis=1, prepend=0.0, append=1.0)


def mp_ncx2_rows(x, dof, noncentralities, dps=32):
    """(F, S) as mpmath numbers at ``dps`` digits: F[r][m] and S[r][m] = 1 - F[r][m] of law r at
    x[m], each a positive sum: with h = dof/2, y = x/2, t_k = y^(h+k) e^-y / Gamma(h+k+1) and w_j
    the Poisson(lam/2) weights, F = sum_k t_k sum_{j<=k} w_j, and S = Q(h, y) +
    sum_k t_k sum_{j>k} w_j (P(h + j, y) = sum_{k>=j} t_k). The sums run 40 standard deviations
    past the larger of y and lam/2."""
    with mpmath.workdps(dps):
        h = mpmath.mpf(0.5 * dof)
        ys = [mpmath.mpf(0.5 * v) for v in np.asarray(x).tolist()]
        mus = [mpmath.mpf(0.5 * v) for v in np.asarray(noncentralities).tolist()]
        top = float(max(ys + mus))
        size = int(top + 40.0 * math.sqrt(top + 1.0) + 60.0)
        ts, qs = [], []
        for y in ys:
            t = [mpmath.exp(h * mpmath.log(y) - y - mpmath.loggamma(h + 1))]
            for k in range(1, size):
                t.append(t[-1] * y / (h + k))
            ts.append(t)
            qs.append(mpmath.gammainc(h, y, mpmath.inf, regularized=True))
        cdf, sf = [], []
        for mu in mus:
            w = [mpmath.exp(-mu)]
            for j in range(1, size):
                w.append(w[-1] * mu / j)
            below = list(itertools.accumulate(w))
            above = list(itertools.accumulate(reversed(w[1:])))[::-1] + [mpmath.mpf(0)]
            cdf.append([mpmath.fdot(t, below) for t in ts])
            sf.append([q + mpmath.fdot(t, above) for t, q in zip(ts, qs)])
    return cdf, sf


def mp_transition(cdf, sf):
    """A transition matrix from ``mp_ncx2_rows`` output, each entry the difference of the two
    neighbouring values of F or of S, whichever are smaller."""
    n = len(cdf)
    probs = np.empty((n, n))
    for r, (f, s) in enumerate(zip(cdf, sf)):
        f, s = [mpmath.mpf(0)] + f + [mpmath.mpf(1)], [mpmath.mpf(1)] + s + [mpmath.mpf(0)]
        for j in range(n):
            probs[r, j] = float(f[j + 1] - f[j] if f[j + 1] < s[j] else s[j] - s[j + 1])
    return probs


@functools.cache
def mp_cir_case(i):
    """(grid values, F, S, matrix) of CIR_CASES[i] by ``mp_ncx2_rows`` on the grid
    ``cir_spot_grid`` gives."""
    params, n_states, dt = CIR_CASES[i]
    p = CirParams(*params)
    values = cir_spot_grid(p, n_states).values
    cdf, sf = mp_ncx2_rows(*cir_laws(p, values, dt))
    return values, cdf, sf, mp_transition(cdf, sf)


def reference_bin_masses(vbar, scheme):
    sd = math.sqrt(vbar)
    cdf = np.array([gaussian_cdf(e / sd) for e in scheme.edges])
    out = np.empty(scheme.n_bins)
    out[0] = cdf[0]
    out[1:-1] = np.diff(cdf)
    out[-1] = 1.0 - cdf[-1]
    return out


def reference_path_layout(n, k, mode):
    """(paths, group_ids, n_groups, member_counts, reps, first_ids) of ``chmm._path_layout``
    from the n^k paths as Python tuples, grouped by a row-wise ``np.unique`` of the sorted
    paths (multiset) or by the index sum."""
    paths = np.array(list(itertools.product(range(n), repeat=k)), dtype=np.int64)
    reps = None
    if mode == INDEX_SUM:
        group_ids = paths.sum(axis=1)
        n_groups = k * (n - 1) + 1
    else:
        reps, group_ids = np.unique(np.sort(paths, axis=1), axis=0, return_inverse=True)
        group_ids = group_ids.reshape(-1)
        n_groups = math.comb(n + k - 1, k)
    member_counts = np.bincount(group_ids, minlength=n_groups)
    return paths, group_ids, n_groups, member_counts, reps, paths[:, 0] * n_groups + group_ids


def reference_chain_products(a_hf, paths):
    return a_hf[paths[:, :-1], paths[:, 1:]].prod(axis=1)


def reference_group_mass(a_hf, k, mode):
    """g by the n^(k+1) enumeration: each start state's path probabilities a[i,p0] times the
    chain product, grouped into Vbar columns by one bincount per start state."""
    paths, group_ids, n_groups = reference_path_layout(a_hf.shape[0], k, mode)[:3]
    probs = a_hf[:, paths[:, 0]] * reference_chain_products(a_hf, paths)
    g = np.stack([np.bincount(group_ids, weights=row, minlength=n_groups) for row in probs])
    return g / g.sum(axis=1, keepdims=True)


def mp_returns_increments(hmm, returns):
    """Per-period log-likelihood increments of the returns filter at 40 digits, on the
    model's floats: exact Gaussian densities, no shift."""
    with mpmath.workdps(40):
        vbar = [mpmath.mpf(float(v)) for v in hmm.table.vbar_values]
        g = [[mpmath.mpf(float(w)) for w in row] for row in hmm.table.g]
        a = [[mpmath.mpf(float(w)) for w in row] for row in hmm.a.probs]
        norm = [1 / mpmath.sqrt(2 * mpmath.pi * v) for v in vbar]
        x = [mpmath.mpf(float(w)) for w in hmm.x0]
        n = len(x)
        incs = []
        for dy in returns:
            dy2 = mpmath.mpf(float(dy)) ** 2
            phi = [c * mpmath.exp(-dy2 / (2 * v)) for c, v in zip(norm, vbar)]
            w = [x[i] * mpmath.fsum(gi * p for gi, p in zip(g[i], phi)) for i in range(n)]
            s = mpmath.fsum(w)
            incs.append(mpmath.log(s))
            x = [mpmath.fsum(w[i] * a[i][j] for i in range(n)) / s for j in range(n)]
        return incs


def reference_loglik_continuous(hmm, returns):
    vbar = hmm.table.vbar_values
    x = hmm.x0
    total = 0.0
    for dy in returns:
        dy = float(dy)
        logphi = -0.5 * (math.log(2.0 * math.pi) + np.log(vbar)) - (dy * dy) / (2.0 * vbar)
        shift = logphi.max()
        w = x * (hmm.table.g @ np.exp(logphi - shift))
        s = w.sum()
        total += math.log(s) + shift
        x = (w / s) @ hmm.a.probs
    return total


def reference_ry(angle):
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def reference_rz(angle):
    return np.array([[np.exp(-0.5j * angle), 0.0], [0.0, np.exp(0.5j * angle)]], dtype=complex)


def reference_rotation_layer(spec, ry_angles, rz_angles):
    order = list(range(spec.latent_qubits - 1, -1, -1)) + [
        spec.latent_qubits + q for q in range(spec.observed_qubits - 1, -1, -1)
    ]
    layer = np.array([[1.0]], dtype=complex)
    for q in order:
        layer = np.kron(layer, reference_rz(rz_angles[q]) @ reference_ry(ry_angles[q]))
    return layer


def reference_unitary(spec, theta):
    n = spec.n_qubits
    pairs = _entanglement_pairs(n, spec.entanglement)
    inv_perm = np.argsort(_cnot_permutation(n, pairs, lambda q: _bit_position(spec, q)))
    layers = theta.reshape(spec.reps + 1, 2, n)
    u = reference_rotation_layer(spec, layers[0, 0], layers[0, 1])
    for r in range(1, spec.reps + 1):
        u = reference_rotation_layer(spec, layers[r, 0], layers[r, 1]) @ u[inv_perm, :]
    return u


def reference_rho0(spec, theta_init):
    psi = np.array([1.0], dtype=complex)
    for q in range(spec.latent_qubits - 1, -1, -1):
        psi = np.kron(psi, reference_ry(theta_init[q])[:, 0])
    pairs = [(q, q + 1) for q in range(spec.latent_qubits - 1)]
    out = np.zeros_like(psi)
    out[_cnot_permutation(spec.latent_qubits, pairs, lambda q: q)] = psi
    return np.outer(out, out.conj())


def reference_kraus(spec, u):
    blocks = u.reshape(spec.dim_latent, spec.dim_observed, spec.dim_latent, spec.dim_observed)
    return blocks[:, :, :, 0].transpose(1, 0, 2)


def _cir_cases():
    rng = np.random.default_rng(3)
    cases = [((2.2, 0.077, 1.1), 16, 0.25)]  # the shipped preset
    for _ in range(12):
        params = (rng.uniform(0.3, 6.0), rng.uniform(0.02, 0.3), rng.uniform(0.1, 2.0))
        cases.append((params, int(rng.integers(2, 17)), float(rng.choice([0.25, 0.5, 1.0]))))
    cases += [
        ((1.0, 0.1, 0.05), 8, 0.25),  # small sigma: noncentrality in the hundreds
        ((0.5, 0.2, 0.05), 8, 1.0),
        ((2.0, 0.1, 0.03), 6, 0.25),  # noncentrality in the thousands
        ((0.3, 0.1, 0.3), 8, 2e-3),  # near-sticky rows: diagonal mass above 0.999
        ((0.3, 0.1, 0.5), 8, 3e-3),
        ((8.0, 0.05, 3.0), 16, 0.25),  # large sigma: noncentrality near zero
        ((3000.0, 0.1, 1.0), 8, 0.25),  # e^{-alpha dt} underflows: central rows
        # the cir fit's region: its start on raw returns is (1, var(returns), 0.5)
        ((1.0, 0.0645605, 0.5), 16, 0.25),
        ((0.75, 0.09, 0.55), 16, 0.25),
        ((0.9, 0.06, 0.45), 16, 0.25),
        ((1.0, 0.08, 0.15), 16, 0.25),  # series past one chunk, pairs past one block
    ]
    return cases


CIR_CASES = _cir_cases()


# The next three tests keep the names they had when the matrix, the CDF and the grid were
# pinned to their scalar loops bit for bit. Since Ding's form and the Halley solver they are
# held to mpmath, with the old code (parent_transition, reference_ncx2_cdf,
# reference_gamma_quantile) as the bar they must not fall below.
@pytest.mark.parametrize("params,n_states,dt", CIR_CASES)
def test_transition_matrix_equals_scalar_cdf_rows(params, n_states, dt):
    values, _, _, want = mp_cir_case(CIR_CASES.index((params, n_states, dt)))
    p, grid = CirParams(*params), SpotGrid(values)
    built = cir_transition_matrix(p, grid, dt).probs
    big = want > 1e-10
    assert np.all(np.abs(built - want)[big] <= 1e-12 * want[big])
    # No entry is farther from mpmath than the old matrix's by more than four ulps of one.
    old_err = np.abs(parent_transition(p, grid, dt) - want)
    assert np.all(np.abs(built - want) <= old_err + 4.0 * np.finfo(float).eps)
    # The last column is the survival function's own positive sum, so even its far tails
    # keep their relative accuracy (the old 1 - F read rounding noise there).
    tail = want[:, -1] > 1e-300
    assert np.all(np.abs(built[tail, -1] - want[tail, -1]) <= 1e-12 * want[tail, -1])


@pytest.mark.parametrize("params,n_states,dt", CIR_CASES)
def test_incomplete_gamma_pairs_equal_scalar_loops(params, n_states, dt):
    shapes, half_x = cir_incomplete_gamma_pairs(CirParams(*params), n_states, dt)
    want = [[reference_reg_inc_gamma_lower(a, x) for x in half_x[0]] for a in shapes[:, 0]]
    assert np.array_equal(reg_inc_gamma_lower(shapes, half_x), want)


def test_transition_cases_reach_the_fraction_and_later_series_chunks():
    # In the fit's start region some pairs take the continued fraction; in the last case
    # some series run past the first chunk and the series pairs fill more than one block.
    shapes, half_x = cir_incomplete_gamma_pairs(CirParams(1.0, 0.0645605, 0.5), 16, 0.25)
    assert (half_x >= shapes + 1.0).any()
    pairs = cir_incomplete_gamma_pairs(CirParams(1.0, 0.08, 0.15), 16, 0.25)
    shapes, half_x = np.broadcast_arrays(*pairs)
    series = half_x < shapes + 1.0
    longest = max(reference_series(a, x)[1] for a, x in zip(shapes[series], half_x[series]))
    assert longest > specfun._SERIES_FIRST_CHUNK
    assert series.sum() > specfun._SERIES_CHUNK_ITEMS // (specfun._SERIES_FIRST_CHUNK + 1)


@pytest.mark.parametrize(
    "a,x",
    [
        (0.28, 0.0), (0.28, 1e-300), (0.28, 1e-8), (0.52, 0.3), (0.52, 1.52), (0.52, 1.5199999),
        (0.52, 40.0), (1.0, 2.0), (3.5, 4.5), (3.5, 4.4999999), (17.3, 9.0), (17.3, 30.0),
        (250.0, 240.0), (4519.0, 4519.58), (9321.0, 9321.15), (2.5e4, 2.49e4), (1e-3, 1e-3),
        (1e-3, 5.0), (80.0, 1e-4),
    ],
)
def test_incomplete_gamma_edge_pairs_equal_scalar_loops(a, x):
    want = reference_reg_inc_gamma_lower(a, x)
    assert reg_inc_gamma_lower(a, x) == want
    got = reg_inc_gamma_lower(np.array([a, a]), np.array([x, 0.5 * x]))
    assert got[0] == want
    assert got[1] == reference_reg_inc_gamma_lower(a, 0.5 * x)


@pytest.mark.parametrize("params,n_states,dt", CIR_CASES[::3] + CIR_CASES[-4:])
def test_noncentral_chi2_cdf_equals_term_by_term_scalar_sum(params, n_states, dt):
    values, cdf_mp, _, _ = mp_cir_case(CIR_CASES.index((params, n_states, dt)))
    x, dof, lams = cir_laws(CirParams(*params), values, dt)
    parent = parent_ncx2_cdf_grid(x, dof, lams)
    cdf = specfun.noncentral_chi2_cdf_grid(x, dof, lams)[0]
    for r in range(0, n_states, max(1, n_states // 4)):
        law = NoncentralChi2Law(dof=dof, noncentrality=lams[r])
        for m, point in enumerate(x.tolist()):
            assert parent[r, m] == reference_ncx2_cdf(point, law)
            one = noncentral_chi2_cdf(point, law)
            assert np.float64(one).tobytes() == specfun.noncentral_chi2_cdf_grid(
                [point], dof, [lams[r]])[0][0, 0].tobytes()
            want = float(cdf_mp[r][m])
            # the table leaves out at most POISSON_TAIL_TOL of a law's Poisson mass, far from
            # these points: no value here moves by 1e-27
            assert abs(one - want) <= 1e-13 * want + 1e-27
            assert abs(cdf[r, m] - want) <= 1e-13 * want + 1e-27


QUANTILE_LAWS = [GammaLaw(0.28, 40.0 / 11.0)] + [
    cir_ergodic_law(CirParams(*params)) for params, _, _ in CIR_CASES[::2]
]


@pytest.mark.parametrize("law", QUANTILE_LAWS)
def test_lockstep_quantiles_equal_one_newton_loop_each(law):
    ps = np.arange(1, 17) / 17
    got = gamma_quantile(ps, law)
    assert [gamma_quantile(p, law) for p in ps.tolist()] == got.tolist()
    old = np.array([reference_gamma_quantile(p, law) for p in ps.tolist()])
    with mpmath.workdps(40):
        a, rate = mpmath.mpf(law.shape), mpmath.mpf(law.rate)
        want = np.array([
            float(mpmath.findroot(
                lambda z, p=p: mpmath.gammainc(a, 0, z, regularized=True) - p,
                (z0 * rate * (1 - mpmath.mpf(1e-9)), z0 * rate * (1 + mpmath.mpf(1e-9))),
                solver="anderson",
            ) / rate)
            for p, z0 in zip(ps.tolist(), old.tolist())
        ])
    err = np.abs(got - want) / want
    # The roots of gamma_cdf, whose prefactor exp(-x + a ln x - lgamma(a)) carries ~1e-15 of
    # rounding; a quantile amplifies it by about 1/a at small shapes and by the rounding of
    # a ln x at large ones.
    assert err.max() <= (1e-14 if 0.1 <= law.shape <= 100.0 else 3e-14)
    assert err.max() <= (np.abs(old - want) / want).max()


def test_transition_matrix_single_state_row():
    p = CirParams(2.2, 0.077, 1.1)
    assert np.array_equal(cir_transition_matrix(p, SpotGrid(np.array([0.07])), 0.25).probs, [[1.0]])


def test_incomplete_gamma_nonconvergence_propagates():
    # dof/2 ~ 2e6 with x/2 ~ a: the incomplete-gamma series needs far more than
    # its iteration cap, and the failure must surface, not be swallowed.
    p = CirParams(1.0, 1.0, 0.001)
    grid = SpotGrid(np.array([0.999, 1.0, 1.001]))
    with pytest.raises(NonConvergenceError, match="incomplete gamma"):
        cir_transition_matrix(p, grid, 1.0)


@pytest.mark.parametrize("params,n_states,dt", CIR_CASES[:8])
@pytest.mark.parametrize("n_obs", [2, 3, 4, 7])
def test_emission_matrix_equals_stacked_scalar_bins(params, n_states, dt, n_obs):
    p = CirParams(*params)
    grid = cir_spot_grid(p, n_states)
    table = build_integrated_table(cir_transition_matrix(p, grid, dt), grid, 3)
    scheme = build_observation_scheme(n_obs, 4.0 * math.sqrt(p.beta))
    per_vbar = np.stack([reference_bin_masses(v, scheme) for v in table.vbar_values])
    assert np.array_equal(build_emission_matrix(table, scheme).probs, table.g @ per_vbar)
    for v in table.vbar_values[:5]:
        assert np.array_equal(emission_given_vbar(v, scheme), reference_bin_masses(v, scheme))


def test_emission_uneven_edges_and_extreme_variances():
    scheme = ObservationScheme(edges=np.array([-0.9, -0.05, 0.0, 0.3, 2.0]))
    for v in (1e-12, 1e-4, 0.3, 7.0, 1e6):
        assert np.array_equal(emission_given_vbar(v, scheme), reference_bin_masses(v, scheme))


_parent_erfc = np.frompyfunc(math.erfc, 1, 1)


def parent_bin_masses(vbar: np.ndarray, scheme: ObservationScheme) -> np.ndarray:
    """``chmm._bin_masses`` with ``math.erfc`` mapped over a ``np.frompyfunc`` object array."""
    z = scheme.edges / np.sqrt(vbar)[..., None]
    cdf = 0.5 * _parent_erfc(-z / math.sqrt(2.0)).astype(float)
    out = np.empty(vbar.shape + (scheme.n_bins,))
    out[..., 0] = cdf[..., 0]
    out[..., 1:-1] = np.diff(cdf, axis=-1)
    out[..., -1] = 1.0 - cdf[..., -1]
    return out


def assert_bin_masses_equal_parent(vbar, scheme):
    got = chmm._bin_masses(vbar, scheme)
    want = parent_bin_masses(vbar, scheme)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("params,n_states,dt", CIR_CASES)
@pytest.mark.parametrize("n_obs", [2, 4, 7])
def test_bin_masses_equal_parent_on_cir_grids(params, n_states, dt, n_obs):
    p = CirParams(*params)
    values = cir_spot_grid(p, n_states).values
    scheme = build_observation_scheme(n_obs, 4.0 * math.sqrt(p.beta))
    for k, mode in ((1, MULTISET), (3, MULTISET), (4, INDEX_SUM)):
        assert_bin_masses_equal_parent(chmm._vbar_values(values, k, mode), scheme)
    stacked = np.stack([values, values * 1.5, values / 3.0])  # a batch of grids
    assert_bin_masses_equal_parent(chmm._vbar_values(stacked, 2, MULTISET), scheme)


@pytest.mark.parametrize("edges", [
    [0.0],  # one edge, at zero
    [0.37],  # one edge, off zero
    [-1e-3],
    [-0.05, 0.0, 0.05],  # an edge at zero among others
    [-0.9, -0.05, 0.0, 0.3, 2.0],
    list(np.linspace(-0.2, 0.2, 9)),
])
def test_bin_masses_equal_parent_over_a_vbar_sweep(edges):
    scheme = ObservationScheme(edges=np.array(edges))
    vbar = np.logspace(-12, 3, 1500)
    assert_bin_masses_equal_parent(vbar, scheme)
    assert_bin_masses_equal_parent(vbar.reshape(3, 500), scheme)
    assert_bin_masses_equal_parent(vbar[:1], scheme)


@pytest.mark.parametrize(
    "n,k", [(n, k) for n in (2, 3, 5) for k in (1, 2, 3, 4, 5)] + [(16, 4), (30, 2), (7, 5)]
)
@pytest.mark.parametrize("mode", [MULTISET, INDEX_SUM])
def test_path_layout_equals_tuple_enumeration(n, k, mode):
    got = _path_layout(n, k, mode)
    want = reference_path_layout(n, k, mode)
    assert got[2] == want[2]
    for i in (3, 5):
        assert got[i].dtype == np.int64
        assert np.array_equal(got[i], want[i])
    if mode == MULTISET:
        assert got[0] is None and got[1] is None
        assert got[4].dtype == np.int64
        assert np.array_equal(got[4], want[4])
    else:
        assert got[4] is None
        assert np.array_equal(got[0], want[0])
        assert got[1].dtype == np.int64
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("mode", [MULTISET, INDEX_SUM])
def test_path_probs_equal_gathered_products(k, mode, rng):
    n = 5
    a_hf = rng.dirichlet(np.ones(n), size=n)
    paths = reference_path_layout(n, k, mode)[0]
    assert np.array_equal(_chain_products(a_hf, k), reference_chain_products(a_hf, paths))


def test_path_probs_preset():
    p = CirParams(2.2, 0.077, 1.1)
    a_hf = cir_transition_matrix(p, cir_spot_grid(p, 16), 0.25).probs
    paths = reference_path_layout(16, 4, MULTISET)[0]
    assert np.array_equal(_chain_products(a_hf, 4), reference_chain_products(a_hf, paths))


def assert_table_near_enumeration(a_hf, k, mode):
    g = build_integrated_table(TransitionMatrix(a_hf, 1.0), SpotGrid(np.arange(1.0, len(a_hf) + 1)),
                               k, mode).g
    want = reference_group_mass(a_hf, k, mode)
    # Subnormal entries are rounded on a grid of 5e-324, so they are held to a few of its
    # steps; every normal entry to 1e-13 relative.
    normal = want >= np.finfo(float).tiny
    assert np.allclose(g[normal], want[normal], rtol=1e-13, atol=0.0)
    assert np.all(np.abs(g - want)[~normal] <= 4 * np.finfo(float).smallest_subnormal)
    assert np.max(np.abs(g.sum(axis=1) - 1.0)) <= 1e-15


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("mode", [MULTISET, INDEX_SUM])
def test_factored_table_equals_path_enumeration(n, k, mode):
    a_hf = np.random.default_rng(100 * n + k).dirichlet(np.ones(n), size=n)
    assert_table_near_enumeration(a_hf, k, mode)


@pytest.mark.parametrize("params,n_states,dt", [CIR_CASES[0], *CIR_CASES[16:18]])
@pytest.mark.parametrize("mode", [MULTISET, INDEX_SUM])
def test_factored_table_preset_and_near_sticky_rows(params, n_states, dt, mode):
    p = CirParams(*params)
    a_hf = cir_transition_matrix(p, cir_spot_grid(p, n_states), dt).probs
    assert_table_near_enumeration(a_hf, 4, mode)


@pytest.mark.parametrize("theta", [(2.2, 0.077, 1.1), (0.8, 0.15, 0.4), (5.0, 0.03, 1.6)])
def test_continuous_loglik_equals_per_step_reference_and_filter(theta):
    scheme = build_observation_scheme(4, 4.0 * math.sqrt(0.077))
    model = ClassicalFitSpec("cir", 16, 4, scheme).model(np.array(theta))
    returns = chmm.simulate(model, 120, 5)[2]
    value = log_likelihood_continuous(model, returns)
    assert value == pytest.approx(reference_loglik_continuous(model, returns), rel=1e-13, abs=0.0)
    total = 0.0
    for inc in filter_path(model, returns=returns).loglik_increments:
        total += inc  # the filter's summation order: one step at a time
    assert value == total


@pytest.fixture(scope="module")
def mp_filter_case():
    """A 6-state, k = 3 model and block + 1 returns: exact zeros, returns 20 sd out on both
    sides and 1e3 among normal draws, with their 40-digit increments."""
    rng = np.random.default_rng(606)
    hmm = random_classical_hmm(rng, n_states=6, n_obs=3, k=3)
    block = chmm.BLOCK_BYTES // (8 * hmm.table.n_vbar)
    sd = math.sqrt(hmm.table.vbar_values.max())
    returns = rng.normal(0.0, sd, block + 1)
    returns[[0, 5, block - 2, block - 1, block]] = [0.0, 1e3, 20.0 * sd, -20.0 * sd, 0.0]
    returns[7:11] = [-20.0 * sd, 1e3, 0.0, 20.0 * sd]
    return hmm, block, returns, mp_returns_increments(hmm, returns)


@pytest.mark.parametrize("length", [lambda block: 1, lambda block: block - 1, lambda block: block,
                                    lambda block: block + 1],
                         ids=["1", "block-1", "block", "block+1"])
def test_blocked_returns_filter_equals_mpmath(length, mp_filter_case):
    hmm, block, returns, increments = mp_filter_case
    t = length(block)
    value = log_likelihood_continuous(hmm, returns[:t])
    want = float(mpmath.fsum(increments[:t]))
    assert value == pytest.approx(want, rel=1e-13, abs=0.0)
    got = filter_path(hmm, returns=returns[:t]).loglik_increments
    for inc, ref in zip(got, increments):
        assert abs(inc - float(ref)) <= 1e-13 * max(1.0, abs(float(ref)))


ANSATZ_SPECS = [
    AnsatzSpec(1, 2, reps=3, entanglement="full"),  # the llr ansatz
    AnsatzSpec(1, 1, reps=0, entanglement="full"),
    AnsatzSpec(2, 2, reps=2, entanglement="linear"),
    AnsatzSpec(2, 1, reps=1, entanglement="full"),
    AnsatzSpec(2, 3, reps=0, entanglement="linear"),
]


@pytest.mark.parametrize("spec", ANSATZ_SPECS, ids=str)
def test_batched_ansatz_equals_kron_chain_per_model(spec):
    rng = np.random.default_rng(spec.n_params)
    theta = rng.uniform(0.0, 2.0 * math.pi, (60, spec.n_params))
    theta_init = rng.uniform(0.0, 2.0 * math.pi, (60, spec.latent_qubits))
    theta[0], theta_init[0] = 0.0, 0.0  # exact zeros and signed zeros
    theta[1], theta_init[1] = math.pi, -math.pi
    unitaries = build_ansatz_unitary(spec, theta)
    kraus = kraus_from_unitary(unitaries, spec)
    rho0 = initial_latent_state(spec, theta_init).matrix
    ops = qhmm_operators(spec, theta, theta_init)
    for b in range(len(theta)):
        u = reference_unitary(spec, theta[b])
        assert np.array_equal(unitaries[b], u)
        assert np.array_equal(kraus[b], reference_kraus(spec, u))
        assert np.array_equal(rho0[b], reference_rho0(spec, theta_init[b]))
        one = build_qhmm(spec, theta[b], theta_init[b])
        assert np.array_equal(one.kraus, kraus[b])
        assert np.array_equal(one.rho0.matrix, rho0[b])
        single = one.operators()
        assert np.array_equal(ops.ops[b], single.ops) and np.array_equal(ops.x0[b], single.x0)


def lone_objective(spec, theta, data):
    """One parameter row's fit objective from the one-model functions."""
    barrier = spec.barrier(theta)
    if barrier > 0.0:
        return barrier
    try:
        model = spec.model(theta)
        if spec.data_kind == "returns":
            return -log_likelihood_continuous(model, data)
        return -log_likelihood_binned(model, data)
    except (NumericalError, ValidationError):
        return 1e12


def assert_rows_equal_lone_models(blocks, models):
    """Each built row's arrays equal its lone ClassicalHmm's; ``models[b]`` is row b's."""
    for rows, batch in blocks:
        vbar = np.broadcast_to(batch.vbar, (len(rows), batch.vbar.shape[-1]))
        for j, b in enumerate(rows):
            model = models[b]
            assert np.array_equal(vbar[j], model.table.vbar_values)
            assert np.array_equal(batch.g[j], model.table.g)
            assert np.array_equal(batch.emission[j], model.emission.probs)
            assert np.array_equal(batch.a[j], model.a.probs)
            assert np.array_equal(batch.x0[j], model.x0)


@pytest.mark.parametrize("mode", [MULTISET, INDEX_SUM])
def test_batched_build_leaves_out_a_non_primitive_chain(mode, rng):
    n, k = 3, 3
    grid = SpotGrid(np.sort(rng.uniform(0.01, 1.0, n)))
    scheme = build_observation_scheme(4, 1.0)
    a_hf = rng.dirichlet(np.ones(n), size=(5, n))
    a_hf[2] = np.roll(np.eye(n), 1, axis=1)  # a 3-cycle: A = a_hf^3 = I is reducible
    with pytest.raises(NonConvergenceError, match="reducible"):
        build_classical_hmm(grid, TransitionMatrix(a_hf[2], 1.0 / k), k, scheme, mode)
    blocks = list(build_classical_batches(a_hf, k, scheme, mode, grid.values))
    assert np.concatenate([rows for rows, _ in blocks]).tolist() == [0, 1, 3, 4]
    models = {b: build_classical_hmm(grid, TransitionMatrix(a_hf[b], 1.0 / k), k, scheme, mode)
              for b in (0, 1, 3, 4)}
    assert_rows_equal_lone_models(blocks, models)


def mixed_rows(kind, rng):
    """Feasible rows with barrier rows and rows whose build raises among them."""
    if kind == "cir":
        return np.array([
            [1.0, 0.1, 0.5],
            [-1.0, 0.1, 0.5],  # barrier
            [1.0, 1.0, 0.002],  # the build raises: the incomplete gamma does not converge
            [2.2, 0.077, 1.1],
            [0.0, 0.2, 0.3],  # barrier at the boundary
            [0.8, 0.15, 0.4],
            [5.0, 0.001, 0.001],  # the build raises: the spot grid's quantile does not converge
            [1.0, 1e-4, 0.01],
        ])
    rows = rng.uniform(0.02, 0.45, (12, 6))  # 3 states: two free entries per row
    rows[3, :2] = [0.7, 0.4]  # a row group summing past one: barrier
    rows[7, 4] = -0.1  # barrier
    rows[9, 1] = 1.0  # barrier at the boundary
    return rows


@pytest.mark.parametrize("kind, data_kind", [("nonparam", "symbols"), ("cir", "symbols"),
                                             ("cir", "returns")])
@pytest.mark.parametrize("mode", [MULTISET, INDEX_SUM])
def test_batched_objective_equals_lone_rows(kind, data_kind, mode, rng):
    scheme = build_observation_scheme(4, 1.2)
    grid = SpotGrid(np.array([0.05, 0.2, 0.6])) if kind == "nonparam" else None
    spec = ClassicalFitSpec(kind, 3, 3, scheme, mode=mode, grid=grid, data_kind=data_kind)
    rows = mixed_rows(kind, rng)
    if data_kind == "returns":
        data = rng.normal(0.0, 0.4, (3, 25))
    else:
        data = rng.integers(0, 4, (3, 25))
    sets = rng.integers(0, 3, len(rows))
    values = spec.objective(data)(rows, sets)
    for i, theta in enumerate(rows):
        alone = spec.objective(data[sets[i]])(theta[None, :])[0]
        assert values[i] == alone == lone_objective(spec, theta, data[sets[i]])
    assert np.sum(values >= 1e8) >= 3 and np.sum(values < 1e8) >= 3
    # the builder's arrays for the rows that build
    built, grids, a_hf = [], [], []
    for i, theta in enumerate(rows):
        try:
            if spec.barrier(theta) == 0.0:
                grid_i, tm = spec._substep(theta)
                grids.append(grid_i.values)
                a_hf.append(tm.probs)
                built.append(i)
        except NumericalError:
            continue
    values_of = np.array(grids) if kind == "cir" else grid.values
    blocks = build_classical_batches(np.array(a_hf), 3, scheme, mode, values_of)
    assert_rows_equal_lone_models(blocks, [spec.model(rows[i]) for i in built])


def test_batches_hold_path_arrays_within_the_block_cap(monkeypatch):
    shapes = []
    chain_products = chmm._chain_products

    def recording(a_hf, k):
        chain = chain_products(a_hf, k)
        shapes.append(chain.shape)
        return chain

    monkeypatch.setattr(chmm, "_chain_products", recording)
    scheme = build_observation_scheme(4, 4.0 * math.sqrt(0.077))
    data = np.random.default_rng(3).integers(0, 4, 30)
    # a preset cir row's chain products (16^4 floats, 512 KB) go two to a block
    cir = ClassicalFitSpec("cir", 16, 4, scheme)
    cir.objective(data)(np.array([[2.2, 0.077, 1.1], [2.0, 0.08, 1.0], [2.5, 0.07, 1.2]]))
    assert shapes == [(2, 16**4), (1, 16**4)]
    # nonparam-4 rows (4^4 floats, 2 KB) go 512 to a block: 200 rows in one
    shapes.clear()
    grid = cir_spot_grid(CirParams(2.2, 0.077, 1.1), 4)
    spec = ClassicalFitSpec("nonparam", 4, 4, scheme, grid=grid)
    spec.objective(data)(np.full((200, 12), 0.25))
    assert shapes == [(200, 256)]
    assert 128 * 4 * 256 * 8 == chmm.BLOCK_BYTES


def reference_simulate(hmm, n_periods, seed):
    """One seed's draw, one substep at a time."""
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


def reference_qhmm_simulate(model, n_steps, seed):
    """One seed's symbols, one predictive law and one one-string forward step per symbol."""
    ops = model.operators()
    effects = ops.ops @ ops.out
    x = ops.x0[None, :]
    symbols = np.empty(n_steps, dtype=np.int64)
    for t, u in enumerate(np.random.default_rng(seed).random(n_steps)):
        probs = np.maximum(0.0, (effects @ x[0]).real)
        cum = np.cumsum(probs / probs.sum())
        symbols[t] = min(int(np.searchsorted(cum, u, side="right")), len(ops.ops) - 1)
        x = operators.forward(ops, symbols[t : t + 1], x)[1]
    return symbols


def reference_draw(model, n_steps, seed):
    if isinstance(model, QhmmModel):
        return reference_qhmm_simulate(model, n_steps, seed)
    return reference_simulate(model, n_steps, seed)[3]


def reference_kl_monte_carlo(dgp, candidate, trials, n_steps, seed, draw=reference_draw):
    """The KL estimate one trial at a time: draw, score under the candidate, then the DGP."""
    ops_p, ops_q = dgp.operators(), candidate.operators()
    diffs = np.empty(trials)
    for trial in range(trials):
        seq = draw(dgp, n_steps, derive_seed(seed, "kl-mc", trial))
        logq = operators.log_prob(operators.forward(ops_q, seq)[0])[0]
        if logq == -math.inf:
            return math.inf, math.nan
        diffs[trial] = operators.log_likelihood(ops_p, seq) - logq
    return float(diffs.mean()), float(diffs.std(ddof=1) / math.sqrt(trials))


def assert_draws_equal(hmm, n_periods, seeds):
    many = chmm.simulate_many(hmm, n_periods, seeds)
    for b, seed in enumerate(seeds):
        ref = reference_simulate(hmm, n_periods, seed)
        for lone, rows, want in zip(chmm.simulate(hmm, n_periods, seed), many, ref):
            assert lone.dtype == rows.dtype == want.dtype
            assert np.array_equal(lone, want) and np.array_equal(rows[b], want)


WALK_SIDES = ("few", "below", "at")


def walk_rows(n_states, side):
    """A block's row count on one side of ``_walk``'s choice: "few" rows double,
    "below" is the most rows that still double, "at" the fewest that step."""
    first_step = -(-chmm._STEP_MIN_ENTRIES // n_states)
    return {"few": min(3, first_step - 1), "below": first_step - 1, "at": first_step}[side]


def block_seeds(seeds, n_rows):
    """seeds, then 1000, 1001, ... up to n_rows seeds."""
    return list(seeds) + list(range(1000, 1000 + n_rows - len(seeds)))


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("mode", [MULTISET, INDEX_SUM])
def test_simulate_equals_per_seed_walk(k, mode, rng):
    hmm = random_classical_hmm(rng, n_states=5, n_obs=4, k=k, mode=mode)
    for side in WALK_SIDES:
        assert_draws_equal(hmm, 37, block_seeds([0, 1, 2**63 + 5, 77, 12345], walk_rows(5, side)))
        assert_draws_equal(hmm, 1, block_seeds([3, 4], walk_rows(5, side)))


@pytest.mark.parametrize("n_states", [1, 3, 16])
def test_walks_agree(n_states, monkeypatch, rng):
    """Stepping and doubling give the same states on the same draws, ties included."""
    cum_rows = np.cumsum(rng.dirichlet(np.ones(n_states), size=n_states), axis=1)
    cum_rows[:, -1] = np.inf
    ranked = chmm._ranked_maps(cum_rows)
    uniforms = rng.random((9, 57))
    sums = ranked[0]
    uniforms[:, ::4] = rng.choice(np.append(sums[sums < 1.0], 0.0), size=uniforms[:, ::4].shape)
    start = rng.integers(0, n_states, 9)
    walks = []
    for threshold in (0, math.inf):  # every block steps, then every block doubles
        monkeypatch.setattr(chmm, "_STEP_MIN_ENTRIES", threshold)
        walks.append(chmm._walk(ranked, start, uniforms))
    assert np.array_equal(*walks)


def test_simulate_preset_in_walk_spans(monkeypatch):
    scheme = build_observation_scheme(4, 4.0 * math.sqrt(0.077))
    preset = ClassicalFitSpec("cir", 16, 4, scheme).model(np.array([2.2, 0.077, 1.1]))
    assert_draws_equal(preset, 500, [7])
    for side in ("below", "at"):
        assert_draws_equal(preset, 30, block_seeds([7], walk_rows(16, side)))
    # blocks of 8 rows: 20 rows go as two stepped blocks and a doubled block of 4
    assert walk_rows(16, "at") <= 8 and walk_rows(16, "below") >= 4
    monkeypatch.setattr(chmm, "BLOCK_BYTES", 8 * 16 * 120 * 8)
    assert_draws_equal(preset, 30, block_seeds([7], 20))
    # a block cap of 40 substep maps: rows go one at a time, in spans of 40 substeps
    monkeypatch.setattr(chmm, "BLOCK_BYTES", 40 * 16 * 8)
    assert_draws_equal(preset, 30, [7, 8, 9])


def test_simulate_chains_with_tied_sums(monkeypatch):
    """Zero transition probabilities tie cumulative sums, within a row and across rows."""
    a_hf = np.array([[0.0, 1.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25],
                     [0.5, 0.0, 0.0, 0.5], [0.0, 0.0, 0.75, 0.25]])
    scheme = build_observation_scheme(3, 1.0)
    grid = SpotGrid(np.array([0.05, 0.2, 0.4, 0.6]))
    blocks = [block_seeds([0, 1, 2], walk_rows(4, side)) for side in WALK_SIDES]
    for k in (1, 3):
        hmm = build_classical_hmm(grid, TransitionMatrix(a_hf, 1.0 / k), k, scheme,
                                  x0=np.array([0.5, 0.0, 0.5, 0.0]))
        for seeds in blocks:
            assert_draws_equal(hmm, 40, seeds)
    # draws equal to a cumulative sum go past it
    sums = np.unique(np.cumsum(a_hf, axis=1)[:, :-1])
    push_uniforms(monkeypatch, sums)
    for seeds in blocks:
        assert_draws_equal(hmm, 40, seeds)
    one = build_classical_hmm(SpotGrid(np.array([0.1])), TransitionMatrix(np.ones((1, 1)), 1.0),
                              1, scheme)
    for side in WALK_SIDES:
        assert_draws_equal(one, 5, block_seeds([4, 5], walk_rows(1, side)))


class PushedUniforms:
    """A generator whose every third uniform is replaced, cycling through ``values``."""

    def __init__(self, make, seed, values):
        self.rng = make(seed)
        self.values = np.asarray(values)

    def random(self, size=None, out=None):
        u = self.rng.random(size, out=out)
        u[::3] = np.resize(self.values, u[::3].shape)
        return u

    def __getattr__(self, name):
        return getattr(self.rng, name)


def push_uniforms(monkeypatch, values):
    """Give ``simulate_many`` (through its seeds.streams) and ``reference_simulate``
    (through np.random.default_rng) the same PushedUniforms of each seed."""
    make = np.random.default_rng

    def pushed(seed):
        return PushedUniforms(make, seed, values)

    monkeypatch.setattr(np.random, "default_rng", pushed)
    monkeypatch.setattr(chmm, "streams", lambda seeds: map(pushed, seeds))


@pytest.mark.parametrize("scale", [1.0 - 2e-11, 1.0 + 2e-11])
def test_simulate_draws_past_the_last_cumulative_sum(scale, monkeypatch, rng):
    n, k = 3, 2
    grid = SpotGrid(np.array([0.05, 0.2, 0.6]))
    a_hf = TransitionMatrix(rng.dirichlet(np.ones(n), size=n) * scale, 1.0 / k)
    x0 = rng.dirichlet(np.ones(n)) * scale
    hmm = build_classical_hmm(grid, a_hf, k, build_observation_scheme(4, 1.0), x0=x0)
    assert np.all((np.cumsum(a_hf.probs, axis=1)[:, -1] < 1.0 - 1e-12) == (scale < 1.0))
    # 1 - 1e-12 lies past any cumulative row that ends below it, before any that ends above
    push_uniforms(monkeypatch, [1.0 - 1e-12])
    for side in WALK_SIDES:
        assert_draws_equal(hmm, 20, block_seeds([1, 2, 3], walk_rows(n, side)))
    # period t ends on uniform k (t + 1); those at multiples of 3 go to the last state
    assert np.all(reference_simulate(hmm, 20, 1)[0][2::3] == n - 1)


@pytest.mark.parametrize("spec", ANSATZ_SPECS[:3], ids=str)
def test_qhmm_symbols_equal_per_seed_sampler(spec):
    model = random_qhmm(spec, spec.n_params)
    seeds = [5, 6, 2**64 - 1, 8]
    many = qhmm_simulate_many(model, 40, seeds)
    for b, seed in enumerate(seeds):
        want = reference_qhmm_simulate(model, 40, seed)
        assert np.array_equal(qhmm_simulate(model, 40, seed), want)
        assert np.array_equal(many[b], want) and many.dtype == want.dtype


def test_qhmm_symbols_of_a_readout_channel():
    spec = AnsatzSpec(1, 2, reps=0)  # Kraus operators I, 0, 0, 0: symbol 0 only
    model = build_qhmm(spec, np.zeros(spec.n_params), np.zeros(1))
    many = qhmm_simulate_many(model, 12, [1, 2])
    assert not np.any(many)
    assert np.array_equal(many[1], reference_qhmm_simulate(model, 12, 2))


def kl_pairs():
    rng = np.random.default_rng(11)
    classical = random_classical_hmm(rng, n_states=3, n_obs=4, k=2)
    quantum = random_qhmm(AnsatzSpec(1, 2, reps=2), 4)
    scheme = build_observation_scheme(4, 4.0 * math.sqrt(0.077))
    preset = ClassicalFitSpec("cir", 16, 4, scheme).model(np.array([2.2, 0.077, 1.1]))
    spec = AnsatzSpec(1, 2, reps=0)  # Kraus operators I, 0, 0, 0: symbol 0 only
    readout = build_qhmm(spec, np.zeros(spec.n_params), np.zeros(1))
    return {"classical-quantum": (classical, quantum), "quantum-classical": (quantum, classical),
            "preset-quantum": (preset, quantum), "unsupported": (classical, readout)}


@pytest.mark.parametrize("pair", ["classical-quantum", "quantum-classical", "preset-quantum",
                                  "unsupported"])
@pytest.mark.parametrize("cap", [None, 3 * 5 * 8])
def test_kl_monte_carlo_equals_per_trial_loop(pair, cap, monkeypatch):
    dgp, cand = kl_pairs()[pair]
    if cap:  # blocks of three trials
        monkeypatch.setattr(analysis, "BLOCK_BYTES", cap)
    got = analysis.kl_monte_carlo(dgp, cand, 40, 5, 321)
    want = reference_kl_monte_carlo(dgp, cand, 40, 5, 321)
    assert repr(got) == repr(want)
    assert (got[0] == math.inf) == (pair == "unsupported")


class ZeroOps:
    """An operator model over 3 symbols with one symbol made impossible."""

    def __init__(self, base, symbol):
        ops = base.ops.copy()
        ops[symbol] = 0.0
        self.ops = operators.OperatorModel(base.x0, ops, base.out)

    def operators(self):
        return self.ops


@pytest.mark.parametrize("first", ["dgp", "candidate", "both"])
@pytest.mark.parametrize("cap", [None, 4 * 6 * 8])
def test_kl_monte_carlo_first_impossible_trial_decides(first, cap, monkeypatch):
    base = random_classical_hmm(np.random.default_rng(2), n_states=3, n_obs=3, k=1).operators()
    dgp, cand = ZeroOps(base, 2), ZeroOps(base, 1)  # the DGP never emits 2, the candidate 1
    trials, seed = 30, 8
    bad = {5: {"dgp": [2], "candidate": [1], "both": [1, 2]}[first],
           17: {"dgp": [1], "candidate": [2], "both": [2]}[first]}
    trial_of = {derive_seed(seed, "kl-mc", t): t for t in range(trials)}

    def strings(model, n_steps, seed):
        s = np.zeros(n_steps, dtype=np.int64)
        for i, symbol in enumerate(bad.get(trial_of[seed], [])):
            s[3 - i] = symbol
        return s

    monkeypatch.setattr(analysis, "model_simulate_symbols",
                        lambda model, n, seeds: np.array([strings(model, n, s) for s in seeds]))
    if cap:  # blocks of four trials
        monkeypatch.setattr(analysis, "BLOCK_BYTES", cap)
    if first == "dgp":
        with pytest.raises(ZeroLikelihoodError) as got:
            analysis.kl_monte_carlo(dgp, cand, trials, 6, seed)
        with pytest.raises(ZeroLikelihoodError) as want:
            reference_kl_monte_carlo(dgp, cand, trials, 6, seed, strings)
        assert str(got.value) == str(want.value) and got.value.step == want.value.step == 3
    else:
        got = analysis.kl_monte_carlo(dgp, cand, trials, 6, seed)
        assert repr(got) == repr(reference_kl_monte_carlo(dgp, cand, trials, 6, seed, strings))
        assert repr(got) == repr((math.inf, math.nan))


# -- Nelder-Mead: the array descent against the generator it replaced ----------------------


def reference_simplex_descent(x0, cfg):
    """One descent as a generator: yields each (k, dim) array of points it needs, is sent
    their k values, and returns its FitResult (the descent ``lockstep_nelder_mead`` runs)."""
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    verts = [x0.copy()]
    for i in range(dim):
        v = x0.copy()
        step = cfg.initial_simplex_scale * (abs(v[i]) if v[i] != 0.0 else 1.0)
        v[i] += step
        verts.append(v)
    verts = np.array(verts)
    fvals = np.array((yield verts), dtype=float)
    if not math.isfinite(fvals[0]):
        raise NumericalError(f"objective is not finite at the starting point ({fvals[0]})")

    iterations = 0
    converged = False
    trace = []
    while iterations < cfg.max_iter:
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
        trace.append(float(fvals[0]))
        spread = fvals[-1] - fvals[0]
        diameter = np.max(np.abs(verts[1:] - verts[0])) if dim > 0 else 0.0
        if spread < cfg.ftol and diameter < cfg.xtol:
            converged = True
            break
        iterations += 1
        centroid = verts[:-1].mean(axis=0)
        reflected = centroid + 1.0 * (centroid - verts[-1])
        (f_r,) = yield reflected[None, :]
        if f_r < fvals[0]:
            expanded = centroid + 2.0 * (centroid - verts[-1])
            (f_e,) = yield expanded[None, :]
            if f_e < f_r:
                verts[-1], fvals[-1] = expanded, f_e
            else:
                verts[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            verts[-1], fvals[-1] = reflected, f_r
        else:
            if f_r < fvals[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid + 0.5 * (verts[-1] - centroid)
            (f_c,) = yield contracted[None, :]
            if f_c < min(f_r, fvals[-1]):
                verts[-1], fvals[-1] = contracted, f_c
            else:
                for j in range(1, dim + 1):
                    verts[j] = verts[0] + 0.5 * (verts[j] - verts[0])
                fvals[1:] = yield verts[1:]

    order = np.argsort(fvals, kind="stable")
    best = order[0]
    return FitResult(theta_hat=verts[best].copy(), nll=float(fvals[best]), iterations=iterations,
                     converged=converged, trace=trace)


class ReferenceDescents:
    """The descents of one fit, one generator per distinct start."""

    def __init__(self, starts, cfg):
        self.starts = [np.asarray(x0, dtype=float) for x0 in starts]
        self.distinct = {}
        for x0 in self.starts:
            self.distinct.setdefault(x0.tobytes(), x0)
        self.runs = [reference_simplex_descent(x0, cfg) for x0 in self.distinct.values()]
        self.pending = [next(run) for run in self.runs]
        self.results = [None] * len(self.runs)
        self.error = None
        self.evaluations = self.barrier_hits = self.sentinel_hits = 0

    def advance(self, i, values):
        self.evaluations += values.size
        self.barrier_hits += int(np.count_nonzero((values >= 1e8) & (values < 1e12)))
        self.sentinel_hits += int(np.count_nonzero(values >= 1e12))
        try:
            self.pending[i] = self.runs[i].send(values)
        except StopIteration as done:
            self.results[i], self.pending[i] = done.value, None
        except NumericalError as exc:
            self.error = exc

    def outcome(self):
        if self.error is not None:
            return self.error
        best = None
        for result in self.results:
            if best is None or result.nll < best.nll:
                best = result
        best.evaluations, best.barrier_hits = self.evaluations, self.barrier_hits
        best.sentinel_hits = self.sentinel_hits
        record_of = {
            key: (r.nll, r.iterations, r.converged) for key, r in zip(self.distinct, self.results)
        }
        best.restarts = [RestartRecord(x0, *record_of[x0.tobytes()]) for x0 in self.starts]
        return best


def reference_lockstep(batch_objective, starts, cfgs):
    """``lockstep_nelder_mead`` as a loop over the descents' generators."""
    fits = [ReferenceDescents(fit_starts, cfg) for fit_starts, cfg in zip(starts, cfgs)]
    while True:
        live = [(f, i) for f, fit in enumerate(fits) if fit.error is None
                for i, points in enumerate(fit.pending) if points is not None]
        if not live:
            return [fit.outcome() for fit in fits]
        points = [fits[f].pending[i] for f, i in live]
        tags = np.repeat([f for f, _ in live], [len(p) for p in points])
        values = np.asarray(batch_objective(np.concatenate(points), tags), dtype=float)
        offset = 0
        for (f, i), asked in zip(live, points):
            if fits[f].error is None:
                fits[f].advance(i, values[offset : offset + len(asked)])
            offset += len(asked)


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def assert_lockstep_equals_reference(batch_objective, starts, cfgs):
    """Both drivers ask for the same points in the same rounds and end every fit alike.
    Returns the rounds' (points, fits)."""
    calls = {"got": [], "want": []}

    def recording(side):
        def objective(points, fits):
            calls[side].append((points.copy(), np.asarray(fits).copy()))
            return batch_objective(points, fits)
        return objective

    got = lockstep_nelder_mead(recording("got"), starts, cfgs)
    want = reference_lockstep(recording("want"), starts, cfgs)
    assert len(calls["got"]) == len(calls["want"])
    for (points, fits), (ref_points, ref_fits) in zip(calls["got"], calls["want"]):
        assert points.shape == ref_points.shape and bits(points) == bits(ref_points)
        assert fits.tolist() == ref_fits.tolist()
    assert len(got) == len(want) == len(starts)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        if isinstance(b, NumericalError):
            assert str(a) == str(b)
            continue
        assert bits(a.theta_hat) == bits(b.theta_hat) and bits([a.nll]) == bits([b.nll])
        assert (a.iterations, a.converged) == (b.iterations, b.converged)
        assert type(a.iterations) is int and type(a.converged) is bool
        assert bits(a.trace) == bits(b.trace) and all(type(v) is float for v in a.trace)
        assert (a.evaluations, a.barrier_hits, a.sentinel_hits) == (
            b.evaluations, b.barrier_hits, b.sentinel_hits)
        assert len(a.restarts) == len(b.restarts)
        for r, s in zip(a.restarts, b.restarts):
            assert bits(r.start) == bits(s.start) and bits([r.nll]) == bits([s.nll])
            assert (r.iterations, r.converged) == (s.iterations, s.converged)
    return calls["got"]


def rugged(points, fits):
    """A bowl per fit with a barrier plateau, a sentinel band, a NaN band and an inf spot,
    so values tie, and comparisons meet NaN and inf."""
    points = np.asarray(points)
    centre = 0.3 + 0.1 * np.asarray(fits)[:, None]
    values = ((points - centre) ** 2 * np.arange(1, points.shape[1] + 1)).sum(axis=1)
    first = points[:, 0]
    values = np.where(first < -0.5, 1e8 * (1.0 - first), values)
    values = np.where(first > 1.5, 1e12, values)
    values = np.where((first > 0.9) & (first < 1.0), np.nan, values)
    return np.where((first > 1.1) & (first < 1.2), np.inf, values)


def plateau(points, fits):
    """Flat terraces: contractions fail and the simplex shrinks."""
    points = np.asarray(points)
    return np.floor(4.0 * np.abs(points - 0.2)).sum(axis=1)


@pytest.mark.parametrize("dim", [1, 3])
def test_array_descent_equals_generator_on_toy_objectives(dim):
    rng = np.random.default_rng(dim)
    starts = [[rng.uniform(-1.0, 0.8, dim) for _ in range(3)] for _ in range(4)]
    # these cross the inf and NaN bands on their way down
    starts[0][1][0], starts[1][1][0], starts[2][2][0] = 1.4, 1.3, 1.05
    starts[0][0][:] = 0.0  # zero entries step by the scale itself
    starts[1].append(starts[1][0].copy())  # a repeated start shares its descent
    starts[2][1] = np.full(dim, -0.9)  # on the barrier
    starts[3][0][0] = 1.7  # in the sentinel band
    cfgs = [FitConfig(max_iter=400), FitConfig(max_iter=1), FitConfig(max_iter=60, ftol=1e-3,
            xtol=1e-2, initial_simplex_scale=0.5), FitConfig(max_iter=250, ftol=1e-12)]
    calls = assert_lockstep_equals_reference(rugged, starts, cfgs)
    values = np.concatenate([rugged(points, fits) for points, fits in calls])
    assert np.isnan(values).any() and np.isinf(values).any()
    result = lockstep_nelder_mead(rugged, starts, cfgs)
    assert result[0].converged and result[1].iterations == 1 and not result[1].converged
    assert result[2].barrier_hits > 0 and result[3].sentinel_hits > 0
    assert len(result[1].restarts) == 4


def test_array_descent_shrinks_like_the_generator():
    x0 = np.array([1.3, -0.7, 2.1])
    calls = assert_lockstep_equals_reference(plateau, [[x0]], [FitConfig(max_iter=80)])
    sizes = [len(points) for points, _ in calls]
    assert sizes[0] == 4 and sizes.count(3) >= 3  # the start, then shrinks of 3 vertices
    calls = assert_lockstep_equals_reference(plateau, [[x0], [x0 + 1.0, x0]],
                                             [FitConfig(max_iter=80)] * 2)
    assert any(len(points) > 3 and len(points) != 4 + 8 for points, _ in calls[1:])


def test_array_descent_contracts_toward_a_nan_vertex():
    """A NaN vertex sorts last; a contraction is then judged against the reflected value
    alone, as Python's min(f_r, nan) gives f_r."""
    def objective(points, fits):
        x = np.asarray(points)[:, 0]
        return np.where((x > 1.06) & (x < 1.15), np.nan, (x - 1.2) ** 2)

    x0 = np.array([1.0])  # the second vertex, 1.1, is NaN; reflected 0.9, contracted 1.05
    calls = assert_lockstep_equals_reference(objective, [[x0], [x0 + 0.5]], [FitConfig()] * 2)
    assert bits(calls[2][0][0]) == bits([1.05])
    assert lockstep_nelder_mead(objective, [[x0]], [FitConfig()])[0].converged


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_a_non_finite_start_ends_its_fit_only(bad):
    def objective(points, fits):
        values = rugged(points, fits)
        return np.where(np.all(points == 7.0, axis=1), bad, values)

    starts = [[np.array([0.1, 0.9])], [np.array([0.4, 0.0]), np.full(2, 7.0), np.array([1.0, 1.0])],
              [np.array([0.5, 0.5]), np.array([0.6, 0.5])]]
    cfgs = [FitConfig(max_iter=90)] * 3
    assert_lockstep_equals_reference(objective, starts, cfgs)
    outcome = lockstep_nelder_mead(objective, starts, cfgs)
    assert isinstance(outcome[1], NumericalError) and "starting point" in str(outcome[1])
    assert not isinstance(outcome[0], NumericalError) and outcome[2].iterations > 10


def lockstep_fits(spec, datas, restarts, max_iter, seed):
    """The starts, configs and batched objective of ``spec.fit_all`` on ``datas``."""
    cfgs = [FitConfig(max_iter=max_iter, seed=seed + f, restarts=restarts)
            for f in range(len(datas))]
    starts = [spec.starts(data, cfg) for data, cfg in zip(datas, cfgs)]
    objective = spec.objective(np.stack(datas))
    return (lambda points, fits: objective(points, fits)), starts, cfgs


def test_array_descent_equals_generator_on_nonparam_4():
    scheme = build_observation_scheme(4, 4.0 * math.sqrt(0.077))
    grid = cir_spot_grid(CirParams(2.2, 0.077, 1.1), 4)
    spec = ClassicalFitSpec("nonparam", 4, 4, scheme, grid=grid)
    assert spec.free_params == 12
    datas = list(np.random.default_rng(12).integers(0, 4, (3, 60)))
    objective, starts, cfgs = lockstep_fits(spec, datas, 3, 70, 5)
    starts[1][2] = starts[1][0].copy()
    assert_lockstep_equals_reference(objective, starts, cfgs)


def test_array_descent_equals_generator_on_qhmm_1_2_3():
    spec = QhmmFitSpec(AnsatzSpec(1, 2, reps=3, entanglement="full"))
    assert spec.free_params == 25
    model = random_qhmm(spec.ansatz, 9)
    datas = [qhmm_simulate(model, 50, seed) for seed in (1, 2)]
    objective, starts, cfgs = lockstep_fits(spec, datas, 2, 40, 8)
    assert_lockstep_equals_reference(objective, starts, cfgs)


# -- stacked stationary laws and period matrices against one chain at a time ---------------


def reference_is_primitive(probs):
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


def reference_gth(probs):
    """GTH elimination on one chain, as ``stationary_distribution`` ran it row by row."""
    if not reference_is_primitive(probs):
        raise NonConvergenceError("chain is reducible or periodic")
    p = np.array(probs, dtype=float)
    for k in range(len(p) - 1, 0, -1):
        p[:k, k] /= p[k, :k].sum()
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])
    pi = np.ones(len(p))
    for k in range(1, len(p)):
        pi[k] = pi[:k] @ p[:k, k]
    return pi / pi.sum()


def chain_stack(n, rows, rng, sticky):
    """Random chains; sticky ones keep 1 - 1e-12 on the diagonal."""
    p = rng.dirichlet(np.full(n, 0.7), size=(rows, n))
    if sticky:
        off = p * (1.0 - np.eye(n))
        off *= 1e-12 / off.sum(axis=-1, keepdims=True)
        p = off + np.eye(n) * (1.0 - 1e-12)
    return p


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("sticky", [False, True])
def test_stacked_gth_equals_gth_per_chain(n, sticky):
    rng = np.random.default_rng(n + 100 * sticky)
    p = chain_stack(n, 40, rng, sticky)
    p[7] = np.eye(n)  # reducible
    p[21] = np.roll(np.eye(n), 1, axis=1)  # periodic
    p[30, :, 0] = 0.0  # a state no chain enters: reducible
    p[30] /= p[30].sum(axis=1, keepdims=True)
    rows, pi = _gth(p)
    assert rows.tolist() == [b for b in range(40) if b not in (7, 21, 30)]
    for r, law in zip(rows, pi):
        assert bits(law) == bits(reference_gth(p[r]))
        assert bits(stationary_distribution(TransitionMatrix(p[r]))) == bits(law)
    for b in (7, 21, 30):
        with pytest.raises(NonConvergenceError):
            reference_gth(p[b])
        with pytest.raises(NonConvergenceError, match="reducible or periodic"):
            stationary_distribution(TransitionMatrix(p[b]))
    if sticky:
        assert np.all(pi > 0.0)


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_stacked_matrix_power_equals_power_per_chain(n, k):
    p = chain_stack(n, 64, np.random.default_rng(10 * n + k), sticky=False)
    powered = np.linalg.matrix_power(p, k)
    for b in range(len(p)):
        assert bits(powered[b]) == bits(matrix_power(TransitionMatrix(p[b]), k).probs)


def test_stacked_gth_on_preset_period_chains():
    scheme = build_observation_scheme(4, 4.0 * math.sqrt(0.077))
    spec = ClassicalFitSpec("cir", 16, 4, scheme)
    thetas = [(2.2, 0.077, 1.1), (0.3, 0.1, 0.3), (8.0, 0.05, 3.0), (0.8, 0.15, 0.4)]
    a = np.array([spec.model(np.array(t)).a.probs for t in thetas])
    rows, pi = _gth(a)
    assert rows.tolist() == [0, 1, 2, 3]
    for b, t in enumerate(thetas):
        assert bits(pi[b]) == bits(spec.model(np.array(t)).x0)


# -- the buffered forward loop against the loop that allocated at every step ---------------


def reference_forward(model, obs, x=None, keep_states=False):
    """``operators.forward`` with a fresh product and state array at every step."""
    obs = np.asarray(obs, dtype=np.int64)
    if obs.ndim != 2:
        obs = obs.reshape(-1)
    batched = model.ops.ndim == 4
    x = np.asarray(model.x0 if x is None else x).reshape(-1, model.out.size)
    if obs.ndim == 2 and not batched and len(x) == 1 < len(obs):
        x = np.broadcast_to(x, (len(obs), x.shape[1]))
    rows, dim = x.shape
    n_steps = obs.shape[-1]
    step_ops = model.step_ops
    if batched:
        step_ops = step_ops.swapaxes(0, 1)
    if batched or obs.ndim == 2:
        x = x[:, None, :]
    if obs.ndim == 2:
        blocks = operators._gathered(step_ops, obs, batched)
    else:
        blocks = [(slice(None), map(step_ops.__getitem__, obs.tolist()))]
    probs = np.empty((n_steps, rows))
    dtype = np.result_type(x, step_ops)
    states = np.empty((n_steps, rows, dim), dtype) if keep_states else None
    last = np.empty((rows, dim), dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for block, per_step in blocks:
            xb, pb = x[block], probs[:, block]
            sb = states[:, block] if keep_states else None
            for t, ops in enumerate(per_step):
                y = xb @ ops
                p = y[..., -1:].real
                xb = y[..., :-1] / p
                pb[t] = p.reshape(-1)
                if keep_states:
                    sb[t] = xb.reshape(-1, dim)
            last[block] = xb.reshape(-1, dim)
    steps = np.ascontiguousarray(probs.T)
    alive = steps > operators.MIN_STEP_PROB
    if not alive.all():
        dead = ~np.logical_and.accumulate(alive, axis=1)
        steps[dead] = 0.0
        last[dead[:, -1]] = 0.0
        if keep_states:
            states[dead.T] = 0.0
    return steps, (states if keep_states else last)


def forward_models():
    """A classical and a quantum batch of six models; in each, models 2 and 4 cannot emit
    symbol 1, so their rows die where it first appears."""
    rng = np.random.default_rng(44)
    classical = [random_classical_hmm(rng, n_states=3, n_obs=3, k=2).operators() for _ in range(6)]
    spec = AnsatzSpec(1, 1, reps=2)
    quantum = qhmm_operators(spec, rng.uniform(0.0, 2.0 * math.pi, (6, spec.n_params)),
                             rng.uniform(0.0, 2.0 * math.pi, (6, 1)))
    batches = {"classical": operators.stack(classical), "quantum": quantum}
    for name, model in batches.items():
        ops = model.ops.copy()
        ops[[2, 4], 1] = 0.0
        batches[name] = operators.OperatorModel(model.x0, ops, model.out)
    return batches


@pytest.mark.parametrize("kind", ["classical", "quantum"])
@pytest.mark.parametrize("cap", [None, "rows", "steps"])
@pytest.mark.parametrize("keep_states", [False, True])
def test_buffered_forward_equals_per_step_loop(kind, cap, keep_states, monkeypatch):
    model = forward_models()[kind]
    op_bytes = model.step_ops[0, 0].nbytes
    if cap == "rows":  # blocks of two rows, all steps gathered at once
        monkeypatch.setattr(operators, "GATHER_BYTES", 2 * op_bytes)
    elif cap == "steps":  # blocks of four rows, gathered five steps at a time
        monkeypatch.setattr(operators, "GATHER_BYTES", 20 * op_bytes)
    obs = np.random.default_rng(5).integers(0, 2, (6, 23))
    obs[:, :3] = 0  # every row lives a few steps
    obs[2, 3] = 1
    cases = [(model, obs, None), (model, obs[0], None),
             (operators.OperatorModel(model.x0[0], model.ops[0], model.out), obs, None),
             (operators.OperatorModel(model.x0[0], model.ops[0], model.out), obs[3],
              np.repeat(model.x0[:1], 4, axis=0))]
    for m, o, x in cases:
        steps, states = operators.forward(m, o, x, keep_states)
        want_steps, want_states = reference_forward(m, o, x, keep_states)
        assert bits(steps) == bits(want_steps)
        assert states.dtype == want_states.dtype and states.tobytes() == want_states.tobytes()
    steps = operators.forward(model, obs, None, keep_states)[0]
    assert np.all(steps[[2, 4]][:, -1] == 0.0) and np.all(steps[[0, 1, 3, 5]] > 0.0)


# -- the objective's fixed costs against the code they replaced ----------------------------
#
# Each ``parent_*`` function below is the code the faster version replaced, copied as it
# was: the forward pass with its generator gather and per-step copy of the step
# probabilities, the ansatz builder with its per-gate matrix products and its libm pass
# per angle array, and the nonparam barrier's full formula on every row. The new code
# must give the same bytes, signed zeros and NaNs included.


def parent_gathered(step_ops, obs, batched):
    rows, n_steps = obs.shape
    op_bytes = step_ops.itemsize * step_ops.shape[-2] * step_ops.shape[-1]
    per_block = max(1, min(rows, operators.GATHER_BYTES // op_bytes))
    steps = max(1, operators.GATHER_BYTES // (per_block * op_bytes))
    for r0 in range(0, rows, per_block):
        block = slice(r0, r0 + per_block)
        which = (np.arange(rows)[block],) if batched else ()
        yield block, parent_steps(step_ops, obs[block], which, steps)


def parent_steps(step_ops, obs, which, steps):
    for t0 in range(0, obs.shape[1], steps):
        yield from step_ops[(obs[:, t0 : t0 + steps].T, *which)]


def parent_forward(model, obs, x=None, keep_states=False):
    obs = np.asarray(obs, dtype=np.int64)
    if obs.ndim != 2:
        obs = obs.reshape(-1)
    if obs.size and (obs.min() < 0 or obs.max() >= model.n_obs):
        raise ValidationError(f"symbols out of range [0, {model.n_obs})")
    batched = model.ops.ndim == 4
    x = np.asarray(model.x0 if x is None else x).reshape(-1, model.out.size)
    if obs.ndim == 2 and not batched and len(x) == 1 < len(obs):
        x = np.broadcast_to(x, (len(obs), x.shape[1]))
    rows, dim = x.shape
    n_steps = obs.shape[-1]
    step_ops = np.concatenate([model.ops, (model.ops @ model.out)[..., None]], axis=-1)
    if batched:
        step_ops = step_ops.swapaxes(0, 1)
    if batched or obs.ndim == 2:
        x = x[:, None, :]
    if obs.ndim == 2:
        blocks = parent_gathered(step_ops, obs, batched)
    else:
        blocks = [(slice(None), map(step_ops.__getitem__, obs.tolist()))]
    probs = np.empty((n_steps, rows))
    dtype = np.result_type(x, step_ops)
    states = np.empty((n_steps, rows, dim), dtype) if keep_states else None
    last = np.empty((rows, dim), dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for block, per_step in blocks:
            xb, pb = x[block], probs[:, block]
            sb = states[:, block] if keep_states else None
            y = np.empty(xb.shape[:-1] + (dim + 1,), dtype)
            buf = np.empty(xb.shape, dtype)
            y_next, p = y[..., :-1], y[..., -1:].real
            p_row = y.reshape(-1, dim + 1)[:, -1].real
            for t, ops in enumerate(per_step):
                np.matmul(xb, ops, out=y)
                xb = np.divide(y_next, p, out=buf)
                pb[t] = p_row
                if keep_states:
                    sb[t] = buf.reshape(-1, dim)
            last[block] = xb.reshape(-1, dim)
    steps = np.ascontiguousarray(probs.T)
    alive = steps > operators.MIN_STEP_PROB
    if not alive.all():
        dead = ~np.logical_and.accumulate(alive, axis=1)
        steps[dead] = 0.0
        last[dead[:, -1]] = 0.0
        if keep_states:
            states[dead.T] = 0.0
    return steps, (states if keep_states else last)


def forward_cases():
    """(name, model, obs, x) of every kind of pass: one string for every row, (B, T)
    strings, a single model with B start rows, and batches with a row that dies."""
    rng = np.random.default_rng(61)
    classical = operators.stack(
        [random_classical_hmm(rng, n_states=4, n_obs=3, k=2).operators() for _ in range(5)])
    spec = AnsatzSpec(1, 2, reps=2)
    quantum = qhmm_operators(spec, rng.uniform(0.0, 2.0 * math.pi, (5, spec.n_params)),
                             rng.uniform(0.0, 2.0 * math.pi, (5, 1)))
    cases = []
    for name, model, n_obs in (("classical", classical, 3), ("quantum", quantum, 4)):
        obs = rng.integers(0, n_obs, (5, 40))
        obs[1, :25] = np.where(obs[1, :25] == 1, 0, obs[1, :25])
        obs[1, 25] = 1
        single = operators.OperatorModel(model.x0[0], model.ops[0], model.out)
        ops = model.ops.copy()
        ops[1, 1] = 0.0  # row 1 dies at step 25
        dead = operators.OperatorModel(model.x0, ops, model.out)
        starts = np.repeat(model.x0[:1], 5, axis=0)
        cases += [(f"{name}-shared", model, obs[0], None), (f"{name}-strings", model, obs, None),
                  (f"{name}-one-model-strings", single, obs, None),
                  (f"{name}-start-rows", single, obs[2], starts),
                  (f"{name}-start-rows-strings", single, obs, starts),
                  (f"{name}-dead-row", dead, obs, None),
                  (f"{name}-dead-row-shared", dead, obs[1], None)]
    return cases


@pytest.mark.parametrize("case", forward_cases(), ids=lambda case: case[0])
@pytest.mark.parametrize("keep_states", [False, True])
@pytest.mark.parametrize("cap", [None, 3, 40])
def test_forward_equals_parent_forward(case, keep_states, cap, monkeypatch):
    """Every kind of pass, whole and in blocks of 3 and 40 operators, has the parent's
    bytes; a row that dies has zero steps and states from its first impossible step on."""
    name, model, obs, x = case
    if cap is not None:  # operators gathered cap at a time, products kept cap // 2 rows at a time
        op_bytes = model.step_ops.itemsize * model.step_ops.shape[-2] * model.step_ops.shape[-1]
        monkeypatch.setattr(operators, "GATHER_BYTES", cap * op_bytes)
        monkeypatch.setattr(operators, "SLAB_BYTES", cap // 2 * op_bytes // model.out.size)
    want_steps, want_states = parent_forward(model, obs, x, keep_states)
    for check in (True, False):
        steps, states = operators.forward(model, obs, x, keep_states, check=check)
        assert steps.flags.c_contiguous and steps.tobytes() == want_steps.tobytes()
        assert states.dtype == want_states.dtype and states.tobytes() == want_states.tobytes()
    if name.endswith("dead-row"):
        assert np.all(steps[1, 25:] == 0.0) and np.all(steps[1, :25] > 0.0)
        assert np.all(steps[[0, 2, 3, 4]] > 0.0)


def test_forward_with_kept_slabs_equals_parent_forward():
    """Passes that keep their product slabs in one dict give the parent's bytes, pass after
    pass; what a pass returns is its own, and the dict holds at most SLABS_KEPT shapes."""
    cases = forward_cases()
    want = [parent_forward(model, obs, x, keep) for _, model, obs, x in cases
            for keep in (False, True)]
    slabs = {}
    for _ in range(3):
        got = [operators.forward(model, obs, x, keep, slabs=slabs) for _, model, obs, x in cases
               for keep in (False, True)]
        for (steps, states), (want_steps, want_states) in zip(got, want):
            assert steps.tobytes() == want_steps.tobytes()
            assert states.tobytes() == want_states.tobytes()
        assert 0 < len(slabs) <= operators.SLABS_KEPT
        for slab, probs, buf, views in slabs.values():
            assert slab.nbytes <= operators.SLAB_BYTES and len(views) == len(slab)
            assert not any(np.shares_memory(slab, a) or np.shares_memory(buf, a)
                           for pair in got for a in pair)


def test_forward_checks_symbols_unless_told_not_to():
    model = random_classical_hmm(np.random.default_rng(2), n_states=3, n_obs=3, k=1).operators()
    with pytest.raises(ValidationError, match="out of range"):
        operators.forward(model, [0, 3, 1])
    with pytest.raises(ValidationError, match="out of range"):
        operators.forward(model, [[0, -1]], model.x0[None])
    steps, _ = operators.forward(model, [0, 2, 1], check=False)
    assert steps.tobytes() == parent_forward(model, [0, 2, 1])[0].tobytes()


def test_stepped_models_equal_concatenated_step_ops():
    """Both builders write their operators into the step form; it equals the
    concatenation the cached property forms from the operators."""
    rng = np.random.default_rng(62)
    hmms = [random_classical_hmm(rng, n_states=4, n_obs=3, k=2) for _ in range(3)]
    spec = AnsatzSpec(2, 1, reps=1, entanglement="linear")
    theta, theta_init = rng.uniform(0.0, 6.0, (4, spec.n_params)), rng.uniform(0.0, 6.0, (4, 2))
    models = [hmm.operators() for hmm in hmms] + [
        qhmm_operators(spec, theta, theta_init),
        build_qhmm(spec, theta[0], theta_init[0]).operators()]
    for model in models:
        plain = operators.OperatorModel(model.x0, np.ascontiguousarray(model.ops), model.out)
        assert model.step_ops.tobytes() == plain.step_ops.tobytes()
        assert np.shares_memory(model.ops, model.step_ops)


def parent_ry_columns(angles):
    half = np.asarray(angles, dtype=float) / 2.0
    flat = half.ravel().tolist()
    cos = np.array([math.cos(a) for a in flat]).reshape(half.shape)
    sin = np.array([math.sin(a) for a in flat]).reshape(half.shape)
    return cos, sin


def parent_rz_ry(ry_angles, rz_angles):
    cos, sin = parent_ry_columns(ry_angles)
    ry = np.empty(cos.shape + (2, 2), dtype=complex)
    ry[..., 0, 0], ry[..., 0, 1], ry[..., 1, 0], ry[..., 1, 1] = cos, -sin, sin, cos
    rz = np.zeros_like(ry)
    rz[..., 0, 0] = np.exp(-0.5j * rz_angles)
    rz[..., 1, 1] = np.exp(0.5j * rz_angles)
    return rz @ ry


def parent_kron(a, b):
    *batch, m, n = a.shape
    p, q = b.shape[-2:]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*batch, m * p, n * q)


def parent_unitary(spec, theta):
    theta = np.asarray(theta, dtype=float)
    n = spec.n_qubits
    pairs = _entanglement_pairs(n, spec.entanglement)
    inv_perm = np.argsort(_cnot_permutation(n, pairs, lambda q: _bit_position(spec, q)))
    layers = theta.reshape(theta.shape[:-1] + (spec.reps + 1, 2, n))
    order = list(range(spec.latent_qubits - 1, -1, -1)) + [
        spec.latent_qubits + q for q in range(spec.observed_qubits - 1, -1, -1)]
    gates = parent_rz_ry(layers[..., 0, :], layers[..., 1, :])
    rotations = np.ones(gates.shape[:-3] + (1, 1), dtype=complex)
    for q in order:
        rotations = parent_kron(rotations, gates[..., q, :, :])
    u = rotations[..., 0, :, :]
    for r in range(1, spec.reps + 1):
        u = u[..., inv_perm, :]
        u = rotations[..., r, :, :] @ u
    return u


def parent_pure_state(spec, theta_init):
    cos, sin = parent_ry_columns(theta_init)
    column = np.stack([cos, sin], axis=-1).astype(complex)[..., None, :]
    psi = np.ones(np.shape(theta_init)[:-1] + (1, 1), dtype=complex)
    for q in range(spec.latent_qubits - 1, -1, -1):
        psi = parent_kron(psi, column[..., q, :, :])
    psi = psi[..., 0, :]
    pairs = [(q, q + 1) for q in range(spec.latent_qubits - 1)]
    perm = _cnot_permutation(spec.latent_qubits, pairs, lambda q: q)
    out = np.zeros_like(psi)
    out[..., perm] = psi
    return out[..., :, None] * out.conj()[..., None, :]


def parent_qhmm_operators(spec, theta, theta_init):
    """The parent's operator form, with its step form from the cached property."""
    kraus = kraus_from_unitary(parent_unitary(spec, theta), spec)
    rho0 = parent_pure_state(spec, theta_init)
    *batch, n, d, _ = kraus.shape
    ops = np.einsum("...sac,...sbe->...sceab", kraus, kraus.conj())
    return operators.OperatorModel(rho0.reshape(*batch, d * d),
                                   ops.reshape(*batch, n, d * d, d * d), np.eye(d).ravel())


QHMM_OPERATOR_SPECS = [AnsatzSpec(latent, observed, reps=reps, entanglement=entanglement)
                       for latent, observed, reps in ((1, 2, 3), (2, 1, 2), (2, 2, 1))
                       for entanglement in ("full", "linear")]


@pytest.mark.parametrize("spec", QHMM_OPERATOR_SPECS, ids=str)
@pytest.mark.parametrize("batch", [1, 8])
def test_qhmm_operators_equal_parent_builder(spec, batch):
    rng = np.random.default_rng(batch * spec.n_params)
    theta = rng.uniform(0.0, 2.0 * math.pi, (batch, spec.n_params))
    theta_init = rng.uniform(0.0, 2.0 * math.pi, (batch, spec.latent_qubits))
    got = qhmm_operators(spec, theta, theta_init)
    want = parent_qhmm_operators(spec, theta, theta_init)
    for name in ("x0", "ops", "out", "step_ops"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for b in range(batch):  # and each row equals its lone model
        one = build_qhmm(spec, theta[b], theta_init[b]).operators()
        assert one.step_ops.tobytes() == got.step_ops[b].tobytes()


@pytest.mark.parametrize("spec", QHMM_OPERATOR_SPECS[:2], ids=str)
def test_qhmm_operators_near_zero_angles_equal_parent_builder(spec):
    """Angles at and near zero, where a gate's matrix product decides the sign of a zero,
    take the product; angles just past the threshold and pi take the elementwise gates;
    each row has the parent's bytes. A NaN row, whose NaN operators fail the completeness
    check, is rejected naming its angle, as the unitary builder rejects it."""
    rng = np.random.default_rng(7)
    specials = [0.0, -0.0, 1e-300, -5e-324, 1e-120, 1e-90, math.pi, -math.pi, 2.0 * math.pi]
    theta = rng.uniform(0.0, 2.0 * math.pi, (len(specials) + 2, spec.n_params))
    theta_init = rng.uniform(0.0, 2.0 * math.pi, (len(specials) + 2, spec.latent_qubits))
    for b, angle in enumerate(specials):
        theta[b, b % spec.n_params] = angle  # one special angle in a random row
    theta[-2] = 0.0  # every angle zero
    theta_init[-2] = 0.0
    theta[-1, 3] = math.nan
    for rows in ([b] for b in range(len(theta) - 1)):
        got = qhmm_operators(spec, theta[rows], theta_init[rows])
        want = parent_qhmm_operators(spec, theta[rows], theta_init[rows])
        assert got.step_ops.tobytes() == want.step_ops.tobytes(), rows
        assert got.x0.tobytes() == want.x0.tobytes(), rows
    with pytest.raises(ValidationError, match=r"theta\[0, 3\] is nan"):
        qhmm_operators(spec, theta[-1:], theta_init[-1:])
    got = build_ansatz_unitary(spec, theta[:-1])
    assert got.tobytes() == parent_unitary(spec, theta[:-1]).tobytes()
    assert initial_latent_state(spec, theta_init[:-1]).matrix.tobytes() == (
        parent_pure_state(spec, theta_init[:-1]).tobytes())
    with pytest.raises(ValidationError, match=r"theta\[10, 3\] is nan"):  # one-model builders
        build_ansatz_unitary(spec, theta)


def test_qhmm_operators_check_completeness_on_the_step_form(monkeypatch):
    """The step form's last columns sum to vec(I) exactly when sum_s K_s^dagger K_s = I;
    a set that misses it by more than the tolerance fails, as ``QhmmModel`` does."""
    spec = AnsatzSpec(1, 2, reps=1)
    rng = np.random.default_rng(64)
    theta, theta_init = rng.uniform(0.0, 6.0, (3, spec.n_params)), rng.uniform(0.0, 6.0, (3, 1))
    model = qhmm_operators(spec, theta, theta_init)
    assert np.abs(model.step_ops[..., -1].sum(axis=-2) - model.out).max() < 1e-14
    unitary = qhmm._unitary
    monkeypatch.setattr(qhmm, "_unitary", lambda *args: unitary(*args) * (1.0 + 1e-9))
    with pytest.raises(ValidationError, match="sum K"):
        qhmm_operators(spec, theta, theta_init)
    kraus = kraus_from_unitary(build_ansatz_unitary(spec, theta[0]), spec)  # scaled too
    with pytest.raises(ValidationError, match="sum K"):
        QhmmModel(kraus, initial_latent_state(spec, theta_init[0]), spec, theta[0], theta_init[0])


def parent_barrier(spec, theta):
    theta = np.asarray(theta, dtype=float)
    if spec.kind == "cir":
        violation = np.clip(-theta, 0.0, None).sum(axis=-1)
        violation = np.where(np.any(theta <= 0.0, axis=-1), np.maximum(violation, 1e-12),
                             violation)
    else:
        n = spec.n_states
        low = np.clip(-theta, 0.0, None).sum(axis=-1)
        high = np.clip(theta - 1.0, 0.0, None).sum(axis=-1)
        violation = low + high
        outside = np.any(theta <= 0.0, axis=-1) | np.any(theta >= 1.0, axis=-1)
        violation = np.where(outside, np.maximum(violation, 1e-12), violation)
        sums = theta.reshape(theta.shape[:-1] + (n, n - 1)).sum(axis=-1)
        row_excess = np.clip(sums - 1.0, 0.0, None).sum(axis=-1)
        violation = np.where(np.any(sums >= 1.0, axis=-1),
                             np.maximum(violation + row_excess, 1e-12), violation)
    return np.where(violation == 0.0, 0.0, 1e8 * (1.0 + violation))[()]


def barrier_rows(kind, rng):
    """Feasible, boundary, infeasible, NaN and infinite parameter rows of a cir or a
    nonparam-3 candidate."""
    if kind == "cir":
        rows = [[1.0, 0.1, 0.5], [2.2, 0.077, 1.1], [0.0, 0.1, 0.5], [-0.0, 0.1, 0.5],
                [1.0, -0.2, 0.5], [-1.0, -2.0, -3.0], [5e-324, 1.0, 1.0], [math.nan, 1.0, 1.0],
                [math.inf, 1.0, 1.0], [-math.inf, 1.0, 1.0]]
        return np.array(rows + list(rng.uniform(-0.5, 2.0, (30, 3))))
    feasible = rng.dirichlet(np.ones(3), size=(30, 3))[..., :2].reshape(30, 6)
    rows = feasible.copy()
    rows[1, 0] = 0.0  # boundary entries
    rows[2, 3] = -0.0
    rows[3, 5] = 1.0
    rows[4, :2] = (0.5, 0.5)  # a row group summing to exactly 1
    rows[5, :2] = (0.75, 0.5)  # a row group summing above 1, its entries inside
    rows[6] = -rows[6]
    rows[7, 2] = 1.5
    rows[8, 4] = math.nan
    rows[9, 1] = math.inf
    rows[10, :2] = (math.inf, -math.inf)  # its row group sums to NaN
    rows[11, 0] = 1.0 - 2.0 ** -53
    rows[12] = rng.uniform(-0.5, 1.5, 6)
    return rows


@pytest.mark.parametrize("kind", ["cir", "nonparam"])
def test_barrier_equals_parent_formula(kind):
    scheme = build_observation_scheme(4, 1.0)
    grid = SpotGrid(np.array([0.05, 0.1, 0.2]))
    spec = ClassicalFitSpec(kind, 3, 2, scheme, grid=grid)
    rows = barrier_rows(kind, np.random.default_rng(63))
    with np.errstate(invalid="ignore"):  # a row group of inf and -inf sums to NaN
        want = parent_barrier(spec, rows)
        got = spec.barrier(rows)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for b in range(len(rows)):  # one row alone, and every split of the batch
            one = spec.barrier(rows[b])
            assert type(one) is type(parent_barrier(spec, rows[b])) is np.float64
            assert np.array([one]).tobytes() == want[b : b + 1].tobytes()
        for split in (1, 4, 17):
            parts = [spec.barrier(rows[i : i + split]) for i in range(0, len(rows), split)]
            assert np.concatenate(parts).tobytes() == want.tobytes()
        # A (3, 4, dim) stack is valued as its 12 rows: the same floats, though a NaN
        # row's sign bit may differ from the parent's pass over the 3-D array.
        stacked = rows[:12].reshape(3, 4, -1)
        got, want_stacked = spec.barrier(stacked), parent_barrier(spec, stacked)
        nan = np.isnan(want_stacked)
        assert got.shape == (3, 4) and np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want_stacked[~nan].tobytes()
    assert (want == 0.0).sum() > 5 and (want >= 1e8).sum() > 5 and np.isnan(want).any()


def test_symbol_objectives_check_the_data_once():
    scheme = build_observation_scheme(4, 1.0)
    grid = SpotGrid(np.array([0.05, 0.1, 0.2]))
    classical = ClassicalFitSpec("nonparam", 3, 2, scheme, grid=grid)
    quantum = QhmmFitSpec(AnsatzSpec(1, 2, reps=1))
    for spec in (classical, quantum):
        with pytest.raises(ValidationError, match="out of range"):
            spec.objective(np.array([[0, 1, 4]]))
        with pytest.raises(ValidationError, match="out of range"):
            spec.objective(np.array([[0, -1, 2], [0, 1, 2]]))
    returns = ClassicalFitSpec("nonparam", 3, 2, scheme, grid=grid, data_kind="returns")
    returns.objective(np.array([[-3.0, 0.5, 9.0]]))  # returns are not symbols
