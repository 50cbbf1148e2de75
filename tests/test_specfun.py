import math
import time

import numpy as np
import pytest
from scipy import stats

from volhmm import specfun
from volhmm.errors import NonConvergenceError
from volhmm.specfun import (
    POISSON_TAIL_TOL,
    GammaLaw,
    NoncentralChi2Law,
    gamma_cdf,
    gamma_quantile,
    gaussian_cdf,
    ln_gamma,
    noncentral_chi2_cdf,
    noncentral_chi2_cdf_with_bound,
    noncentral_chi2_pdf,
    poisson_mixture_terms,
    reg_inc_gamma_lower,
)

# Frozen oracle values (mpmath quadrature / extended-precision Bessel, 40 digits).
ERF_SQRT2 = 0.9544997361036415856
GAMMA_CDF_0077 = 0.7332467650353737325  # shape 0.28, rate 40/11, x = 0.077
GAMMA_Q_025 = 0.0013446031436790450594
NCX2_CDF_3 = 0.79130776423400289764  # dof 0.56, lam 1.2
NCX2_PDF_1 = 0.23287980379682021825  # dof 2, lam 1
PHI_196 = 0.97500210485177956586

SP500_LAW = GammaLaw(shape=0.28, rate=40.0 / 11.0)


class TestLnGamma:
    def test_known_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert ln_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)

    def test_relative_error_across_range(self):
        from scipy import special

        for x in [1e-3, 0.05, 1.7, 42.0, 9.9e5]:
            assert ln_gamma(x) == pytest.approx(special.gammaln(x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            ln_gamma(0.0)
        with pytest.raises(ValueError):
            ln_gamma(-3.0)


class TestRegIncGammaLower:
    def test_exponential_law(self):
        assert reg_inc_gamma_lower(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_zero(self):
        for a in [0.1, 1.0, 17.3]:
            assert reg_inc_gamma_lower(a, 0.0) == 0.0

    def test_half_dof_erf(self):
        assert reg_inc_gamma_lower(0.5, 2.0) == pytest.approx(ERF_SQRT2, abs=1e-12)

    def test_monotone_in_x(self, rng):
        a = 0.28
        xs = np.sort(rng.uniform(0.0, 20.0, 50))
        vals = [reg_inc_gamma_lower(a, x) for x in xs]
        assert np.all(np.diff(vals) >= 0.0)
        assert all(0.0 <= v <= 1.0 for v in vals)

    @pytest.mark.parametrize(
        "a,x", [(8796.0, 8764.89), (9321.0, 9321.15), (4519.0, 4519.58), (2.5e4, 2.49e4)]
    )
    def test_large_shape_near_the_mean_against_mpmath(self, a, x):
        import mpmath as mp

        mp.mp.dps = 40
        ref = float(mp.gammainc(a, 0, x, regularized=True))
        assert reg_inc_gamma_lower(a, x) == pytest.approx(ref, rel=1e-10)

    def test_huge_shape_zero_continued_fraction_term_fails_cleanly(self):
        # a + 1 rounds to a, so x = a takes the continued fraction, whose first
        # term x + 1 - a is 0: a NonConvergenceError, not a ZeroDivisionError.
        with pytest.raises(NonConvergenceError, match="incomplete gamma"):
            reg_inc_gamma_lower(1e17, 1e17)

    def test_huge_shape_iteration_cap_stops_growing(self):
        # shape 4.7e15 at x = a needs ~5e8 series terms; the cap stops at 50,500,
        # so the failure comes in milliseconds rather than after about a minute.
        started = time.perf_counter()
        with pytest.raises(NonConvergenceError, match="incomplete gamma"):
            reg_inc_gamma_lower(4.7e15, 4.7e15)
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize("sigma", [8.3e-16, 1e-12, 1e-10, 1e-8])
    def test_tiny_sigma_spot_grid_fails_cleanly(self, sigma):
        from volhmm.volgrid import CirParams, cir_spot_grid

        started = time.perf_counter()
        with pytest.raises(NonConvergenceError):
            cir_spot_grid(CirParams(2.1113816820690166, 0.11141600799901562, sigma), 4)
        assert time.perf_counter() - started < 2.0

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_inc_gamma_lower(-1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_gamma_lower(1.0, -1.0)


class TestGammaCdf:
    def test_zero(self):
        assert gamma_cdf(0.0, SP500_LAW) == 0.0

    def test_exponential_median(self):
        assert gamma_cdf(math.log(2.0), GammaLaw(1.0, 1.0)) == pytest.approx(0.5, abs=1e-14)

    def test_sp500_parameter_point(self):
        assert gamma_cdf(0.077, SP500_LAW) == pytest.approx(GAMMA_CDF_0077, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_cdf(-0.1, SP500_LAW)


class TestGammaQuantile:
    def test_exponential_median(self):
        assert gamma_quantile(0.5, GammaLaw(1.0, 1.0)) == pytest.approx(math.log(2.0), rel=1e-10)

    def test_round_trip(self, rng):
        for _ in range(25):
            law = GammaLaw(shape=rng.uniform(0.1, 5.0), rate=rng.uniform(0.2, 8.0))
            p = rng.uniform(0.01, 0.99)
            assert gamma_cdf(gamma_quantile(p, law), law) == pytest.approx(p, abs=1e-8)

    def test_quartile_oracle(self):
        assert gamma_quantile(0.25, SP500_LAW) == pytest.approx(GAMMA_Q_025, rel=1e-9)

    # The preset's ergodic law, and laws of shape < 1 from the cir fit's start on raw returns,
    # theta = (1, var(returns), 0.5): shape 2 var / 0.25.
    @pytest.mark.parametrize(
        "law", [SP500_LAW] + [GammaLaw(8.0 * v, 8.0) for v in (0.0645605, 0.05, 0.08)]
    )
    def test_newton_stops_once_converged(self, law, monkeypatch):
        # One gamma_cdf call per round; the first also evaluates the bracket's end points.
        calls = []

        def counted(x, law):
            calls.append(x)
            return gamma_cdf(x, law)

        monkeypatch.setattr(specfun, "gamma_cdf", counted)
        for i in range(16):
            p = (i + 1) / 17
            calls.clear()
            q = gamma_quantile(p, law)
            assert len(calls) <= 20
            assert abs(gamma_cdf(q, law) - p) <= 1e-12
            want = stats.gamma.ppf(p, law.shape, scale=1.0 / law.rate)
            assert q == pytest.approx(want, rel=1e-10)

    def test_domain(self):
        for p in [0.0, 1.0, -0.2, 1.7]:
            with pytest.raises(ValueError):
                gamma_quantile(p, SP500_LAW)


class TestNoncentralChi2Cdf:
    def test_zero_noncentrality_collapses_to_central(self, rng):
        for _ in range(10):
            dof = rng.uniform(0.3, 8.0)
            x = rng.uniform(0.1, 15.0)
            mine = noncentral_chi2_cdf(x, NoncentralChi2Law(dof, 0.0))
            assert mine == pytest.approx(reg_inc_gamma_lower(dof / 2.0, x / 2.0), abs=1e-12)

    def test_chi2_two_dof_is_exponential(self):
        assert noncentral_chi2_cdf(2.0, NoncentralChi2Law(2.0, 0.0)) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-12
        )

    def test_quadrature_oracle(self):
        assert noncentral_chi2_cdf(3.0, NoncentralChi2Law(0.56, 1.2)) == pytest.approx(
            NCX2_CDF_3, abs=1e-10
        )

    def test_monotone_and_bounded(self, rng):
        law = NoncentralChi2Law(0.56, 4.2)
        xs = np.sort(rng.uniform(0.0, 30.0, 40))
        vals = [noncentral_chi2_cdf(x, law) for x in xs]
        assert np.all(np.diff(vals) >= 0.0)
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_truncation_bound_dominates_discarded_tail(self):
        # Full-series reference (scipy Poisson weights well past the truncation
        # point) moves the value by less than the reported bound.
        law = NoncentralChi2Law(0.56, 7.0)
        for x in [0.5, 3.0, 12.0]:
            value, bound = noncentral_chi2_cdf_with_bound(x, law)
            j = np.arange(0, 250)
            weights = stats.poisson.pmf(j, law.noncentrality / 2.0)
            full = sum(
                w * reg_inc_gamma_lower(law.dof / 2.0 + jj, x / 2.0)
                for jj, w in zip(j, weights)
            )
            assert abs(full - value) <= bound + 1e-13

    @pytest.mark.parametrize("x,dof,lam", [(400.0, 1.0, 100.0), (300.0, 3.0, 50.0), (1e7, 1.0, 100.0)])
    def test_points_past_the_poisson_window(self, x, dof, lam):
        # the t terms of x lie past the law's window: they enter as one P(h + K, y)
        started = time.perf_counter()
        value = noncentral_chi2_cdf(x, NoncentralChi2Law(dof, lam))
        assert time.perf_counter() - started < 1.0
        assert value == pytest.approx(stats.ncx2.cdf(x, dof, lam), rel=1e-15)

    def test_huge_noncentrality_fails_cleanly(self):
        # a Poisson window of some 2e8 terms: refused before any table is built
        started = time.perf_counter()
        with pytest.raises(NonConvergenceError, match="Poisson mixture"):
            noncentral_chi2_cdf(1.0, NoncentralChi2Law(1.0, 1e14))
        assert time.perf_counter() - started < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            noncentral_chi2_cdf(-1.0, NoncentralChi2Law(1.0, 1.0))


# Number of Poisson terms the mixture walk visits at each half noncentrality h; the
# transition matrices sum exactly these terms, so a change in the walk shows here.
POISSON_TERM_COUNTS = {0.0: 1, 1e-12: 2, 0.3: 12, 1.0: 17, 7.5: 38, 40.0: 98, 2e3: 743, 4e5: 8116}


class TestPoissonMixtureTerms:
    """The walk outward from the mode, checked against its documented rules."""

    @staticmethod
    def _flank_stops(j, w, mode, down):
        cutoff = POISSON_TAIL_TOL * 1e-3
        if down:
            return j == 0 or (w < cutoff and j < mode)
        return w < cutoff and j > mode + 1

    @pytest.mark.parametrize("h", sorted(POISSON_TERM_COUNTS))
    def test_walk(self, h):
        terms, tail = poisson_mixture_terms(h)
        assert len(terms) == POISSON_TERM_COUNTS[h]
        if h == 0.0:
            assert (terms, tail) == ([(0, 1.0)], 0.0)
            return
        js = [j for j, _ in terms]
        mode = math.floor(h)
        assert js[0] == mode
        assert len(set(js)) == len(js)
        down = [(j, w) for j, w in terms if j <= mode]
        up = [(j, w) for j, w in terms if j > mode]
        assert [j for j, _ in down] == list(range(mode, mode - len(down), -1))
        assert [j for j, _ in up] == list(range(mode + 1, mode + 1 + len(up)))
        # One step down then one up per round while both flanks run, then the longer flank.
        m = min(len(down), len(up))
        rounds = [[d, u] for d, u in zip(down, up)] + [[t] for t in down[m:] + up[m:]]
        assert [t for r in rounds for t in r] == terms
        w = np.array([w for _, w in terms])
        # Log-space weights: at h = 4e5 the exponent's terms near 5e6 carry ~1e-9 error.
        assert np.allclose(w, stats.poisson.pmf(js, h), rtol=1e-7, atol=0.0)
        acc, partial = 0.0, []
        for r in rounds:
            for _, weight in r:
                acc += weight
            partial.append(acc)
        assert tail == max(0.0, 1.0 - acc)
        # The walk ends in the first round whose mass is within the tolerance or after
        # which both flanks have stopped; a flank stops at the first term its rule names.
        assert all(1.0 - p >= POISSON_TAIL_TOL for p in partial[:-1])
        by_mass = 1.0 - acc < POISSON_TAIL_TOL
        for flank, is_down in ((down, True), (up, False)):
            flags = [self._flank_stops(j, weight, mode, is_down) for j, weight in flank]
            assert not any(flags[:-1])
            assert flags[-1] or by_mass


class TestNoncentralChi2Pdf:
    def test_normalizes(self):
        from scipy import integrate

        law = NoncentralChi2Law(0.56, 1.2)
        total, _ = integrate.quad(lambda x: noncentral_chi2_pdf(x, law), 0.0, 200.0, limit=400)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_consistent_with_cdf(self):
        law = NoncentralChi2Law(2.0, 1.0)
        h = 1e-6
        deriv = (
            noncentral_chi2_cdf(2.0 + h, law) - noncentral_chi2_cdf(2.0 - h, law)
        ) / (2.0 * h)
        assert deriv == pytest.approx(noncentral_chi2_pdf(2.0, law), rel=1e-6)

    def test_bessel_series_oracle(self):
        assert noncentral_chi2_pdf(1.0, NoncentralChi2Law(2.0, 1.0)) == pytest.approx(
            NCX2_PDF_1, rel=1e-12
        )

    def test_zero_noncentrality_is_central_density(self):
        dof = 3.4
        x = 1.7
        central = math.exp(
            (dof / 2 - 1) * math.log(x) - x / 2 - (dof / 2) * math.log(2.0) - math.lgamma(dof / 2)
        )
        assert noncentral_chi2_pdf(x, NoncentralChi2Law(dof, 0.0)) == pytest.approx(central, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            noncentral_chi2_pdf(0.0, NoncentralChi2Law(1.0, 1.0))


class TestGaussianCdf:
    def test_center(self):
        assert gaussian_cdf(0.0) == 0.5

    def test_saturation(self):
        assert gaussian_cdf(40.0) == pytest.approx(1.0, abs=1e-15)
        assert gaussian_cdf(-40.0) == pytest.approx(0.0, abs=1e-15)

    def test_erf_oracle(self):
        assert gaussian_cdf(1.96) == pytest.approx(PHI_196, abs=1e-12)

    def test_symmetry(self, rng):
        for z in rng.normal(0.0, 2.0, 30):
            assert gaussian_cdf(z) + gaussian_cdf(-z) == pytest.approx(1.0, abs=1e-15)
