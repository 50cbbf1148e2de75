import math
import re

import numpy as np
import pytest

from volhmm.errors import NonConvergenceError, ValidationError
from volhmm.volgrid import (
    CirParams,
    ObservationScheme,
    TransitionMatrix,
    build_observation_scheme,
    cir_ergodic_law,
    cir_spot_grid,
    cir_transition_matrix,
    discretize_return,
    matrix_power,
    nonparam_transition_matrix,
    stationary_distribution,
)
from volhmm.specfun import gamma_cdf

SP500 = CirParams(alpha=2.2, beta=0.077, sigma=1.1)

# Frozen quadrature-CDF bisection oracle for the 16-state grid at the DGP
# parameters alpha=2.2, beta=0.077, sigma=1.1 (mpmath, 40 digits).
SP500_GRID_16 = [
    7.6330795868748133e-6, 9.0763132620705101e-5, 0.00038651969122163115,
    0.0010820285635612563, 0.0024097974730141419, 0.0046507548546689736,
    0.0081450955471191444, 0.013313821580324682, 0.020697064286198436,
    0.031021500796557346, 0.045323130833492997, 0.065186446742854767,
    0.09325969757834535, 0.13454063101077656, 0.20041103357441834,
    0.3280354021949544,
]


class TestObservationScheme:
    def test_sign_classifier(self):
        scheme = build_observation_scheme(2, 0.5)
        assert scheme.edges.tolist() == [0.0]
        assert scheme.n_bins == 2

    def test_equal_split(self):
        scheme = build_observation_scheme(4, 0.03)
        assert scheme.edges == pytest.approx([-0.03, 0.0, 0.03])

    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError):
            build_observation_scheme(1, 0.5)

    def test_discretize(self):
        sign = ObservationScheme(edges=np.array([0.0]))
        assert discretize_return(-0.01, sign) == 0
        assert discretize_return(0.0, sign) == 1  # tie goes right
        wide = ObservationScheme(edges=np.array([-0.03, 0.0, 0.03]))
        assert discretize_return(0.05, wide) == 3
        assert discretize_return(-0.03, wide) == 1

    def test_edges_must_increase(self):
        with pytest.raises(ValidationError):
            ObservationScheme(edges=np.array([0.1, 0.1]))


class TestErgodicLaw:
    def test_sp500_preset_parameters(self):
        law = cir_ergodic_law(SP500)
        assert law.shape == pytest.approx(0.28, rel=1e-14)
        assert law.rate == pytest.approx(40.0 / 11.0, rel=1e-14)

    def test_mean_is_long_run_level(self, rng):
        for _ in range(10):
            p = CirParams(*rng.uniform(0.2, 3.0, 3))
            law = cir_ergodic_law(p)
            assert law.mean == pytest.approx(p.beta, rel=1e-12)

    def test_exponential_special_case(self):
        law = cir_ergodic_law(CirParams(1.0, 1.0, math.sqrt(2.0)))
        assert (law.shape, law.rate) == (pytest.approx(1.0), pytest.approx(1.0))


    @pytest.mark.parametrize("sigma, what", [(1e-170, "sigma^2 = 0.0"), (1e200, "sigma^2 = inf"),
                                             (1e-160, "shape 2ab/s^2 = inf")])
    def test_under_or_overflowing_sigma_rejected(self, sigma, what):
        p = CirParams(2.2, 0.077, sigma)
        with pytest.raises(ValidationError, match=re.escape(what)):
            cir_ergodic_law(p)
        with pytest.raises(ValidationError, match="is not finite and positive"):
            cir_transition_matrix(p, cir_spot_grid(SP500, 4), 0.25)


class TestSpotGrid:
    def test_rejects_single_state(self):
        with pytest.raises(ValidationError):
            cir_spot_grid(SP500, 1)

    def test_exponential_quantiles(self):
        grid = cir_spot_grid(CirParams(1.0, 1.0, math.sqrt(2.0)), 3)
        assert grid.values == pytest.approx(
            [math.log(4.0 / 3.0), math.log(2.0), math.log(4.0)], rel=1e-9
        )

    def test_sp500_grid_16(self):
        grid = cir_spot_grid(SP500, 16)
        assert np.all(np.diff(grid.values) > 0.0)
        assert grid.values == pytest.approx(SP500_GRID_16, rel=1e-8)


class TestTransitionMatrix:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, value):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        probs[0, 1] = value
        with pytest.raises(ValidationError, match="transition probabilities must be finite"):
            TransitionMatrix(probs=probs)


class TestCirTransitionMatrix:
    @pytest.mark.parametrize("params", [(1.0, 0.1, 0.01), (0.5, 0.05, 0.01)])
    def test_small_sigma_builds_on_the_preset_grid(self, params):
        # shapes near 9e3 with x within sqrt(a) of a: the incomplete-gamma
        # series needs more terms than a fixed cap of 500
        from scipy import stats

        p = CirParams(*params)
        grid = cir_spot_grid(p, 16)
        mat = cir_transition_matrix(p, grid, 0.25)
        s2 = p.sigma**2
        decay = math.exp(-p.alpha * 0.25)
        c = 2.0 * p.alpha / ((1.0 - decay) * s2)
        mids = 0.5 * (grid.values[:-1] + grid.values[1:])
        dof = 4.0 * p.alpha * p.beta / s2
        cdf = stats.ncx2.cdf(2.0 * c * mids[None, :], dof, (2.0 * c * decay * grid.values)[:, None])
        ref = np.diff(np.hstack([np.zeros((16, 1)), cdf, np.ones((16, 1))]), axis=1)
        assert np.max(np.abs(mat.probs - ref)) < 1e-9

    @pytest.mark.parametrize(
        "params,n_states,dt",
        [((0.09633838229660216, 0.3934671293779621, 0.020784497693745907), 2, 0.010938808243964714),
         ((34.03268422745899, 0.2174747442852289, 0.11059982605253901), 8, 0.0016957546411827135)],
    )
    def test_midpoints_between_windows_build_at_large_scale(self, params, n_states, dt):
        # half noncentralities of 2e4 to 2e5 whose Poisson windows hold no midpoint's mode:
        # the incomplete-gamma cap does not apply there, as the old per-pair series passed
        from scipy import stats

        p = CirParams(*params)
        grid = cir_spot_grid(p, n_states)
        mat = cir_transition_matrix(p, grid, dt)
        s2 = p.sigma**2
        decay = math.exp(-p.alpha * dt)
        c = 2.0 * p.alpha / ((1.0 - decay) * s2)
        mids = 0.5 * (grid.values[:-1] + grid.values[1:])
        dof = 4.0 * p.alpha * p.beta / s2
        cdf = stats.ncx2.cdf(2.0 * c * mids[None, :], dof, (2.0 * c * decay * grid.values)[:, None])
        ref = np.diff(cdf, axis=1, prepend=0.0, append=1.0)
        assert np.max(np.abs(mat.probs - ref)) < 1e-12

    @pytest.mark.parametrize("params,dt", [((0.3, 0.1, 0.3), 2e-3), ((0.3, 0.1, 0.5), 3e-3)])
    def test_upper_tail_column_against_scipy_sf(self, params, dt):
        # near-sticky rows: the top column holds upper tails down to 1e-228
        from scipy import stats

        p = CirParams(*params)
        grid = cir_spot_grid(p, 8)
        s2 = p.sigma**2
        decay = math.exp(-p.alpha * dt)
        c = 2.0 * p.alpha / ((1.0 - decay) * s2)
        top = 0.5 * (grid.values[-2] + grid.values[-1])
        want = stats.ncx2.sf(2.0 * c * top, 4.0 * p.alpha * p.beta / s2, 2.0 * c * grid.values * decay)
        got = cir_transition_matrix(p, grid, dt).probs[:, -1]
        assert want[4] > 1e-160 and want[0] < 1e-200
        normal = want > 1e-300  # scipy reads 0 below
        assert np.allclose(got[normal], want[normal], rtol=1e-11, atol=0.0)
        assert np.all(got[~normal] < 1e-250)

    def test_decay_of_one_rejected(self):
        # alpha dt below the rounding of exp: 1 - e^{-a dt} is 0 and c would divide by it
        with pytest.raises(ValidationError, match="e\\^\\{-a dt\\}"):
            cir_transition_matrix(CirParams(1e-20, 0.1, 0.5), cir_spot_grid(SP500, 4), 0.25)

    def test_rows_sum_to_one(self):
        grid = cir_spot_grid(SP500, 4)
        mat = cir_transition_matrix(SP500, grid, 0.25)
        assert np.max(np.abs(mat.probs.sum(axis=1) - 1.0)) < 1e-10

    def test_long_horizon_reaches_ergodic_masses(self):
        grid = cir_spot_grid(SP500, 4)
        mat = cir_transition_matrix(SP500, grid, 50.0 / SP500.alpha)
        law = cir_ergodic_law(SP500)
        mids = 0.5 * (grid.values[:-1] + grid.values[1:])
        cdfs = [gamma_cdf(m, law) for m in mids]
        masses = np.array([cdfs[0], cdfs[1] - cdfs[0], cdfs[2] - cdfs[1], 1.0 - cdfs[2]])
        assert np.max(np.abs(mat.probs - masses)) < 1e-6


class TestNonparamTransitionMatrix:
    def test_direct_fill(self):
        mat = nonparam_transition_matrix(np.array([0.3, 0.6]), 2)
        assert mat.probs == pytest.approx(np.array([[0.3, 0.7], [0.6, 0.4]]))

    def test_constraint_violation_names_row(self):
        with pytest.raises(ValidationError, match="row 0"):
            nonparam_transition_matrix(np.array([1.2, 0.5]), 2)

    def test_sixteen_states_need_240_parameters(self, rng):
        theta = rng.uniform(0.01, 0.99 / 15.0, 240)
        mat = nonparam_transition_matrix(theta, 16)
        assert mat.probs.shape == (16, 16)
        with pytest.raises(ValidationError):
            nonparam_transition_matrix(theta[:-1], 16)


class TestStationaryDistribution:
    def test_symmetric_two_state(self):
        mat = TransitionMatrix(probs=np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert stationary_distribution(mat) == pytest.approx([0.5, 0.5], abs=1e-11)

    def test_identity_rejected(self):
        with pytest.raises(NonConvergenceError):
            stationary_distribution(TransitionMatrix(probs=np.eye(2)))

    def test_periodic_rejected(self):
        with pytest.raises(NonConvergenceError):
            stationary_distribution(TransitionMatrix(probs=np.array([[0.0, 1.0], [1.0, 0.0]])))

    def test_balance_equation(self):
        mat = TransitionMatrix(probs=np.array([[0.5, 0.5], [0.25, 0.75]]))
        assert stationary_distribution(mat) == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-11)

    def test_fixed_point(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            mat = TransitionMatrix(probs=rng.dirichlet(np.ones(n), size=n))
            pi = stationary_distribution(mat)
            assert pi @ mat.probs == pytest.approx(pi, abs=1e-10)

    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    def test_sticky_chain_is_solved_exactly(self, eps):
        # self-transition 1 - eps with uneven off-diagonal rows
        off = np.array(
            [[0, 0.5, 0.3, 0.2], [0.1, 0, 0.6, 0.3], [0.25, 0.25, 0, 0.5], [0.7, 0.2, 0.1, 0]]
        ) * eps
        probs = off + np.diag(1.0 - off.sum(axis=1))
        pi = stationary_distribution(TransitionMatrix(probs=probs))
        assert np.max(np.abs(pi @ probs - pi)) <= 1e-14
        assert abs(pi.sum() - 1.0) <= 1e-15 and np.all(pi > 0.0)


class TestMatrixPower:
    def test_identity_power(self):
        mat = TransitionMatrix(probs=np.array([[0.5, 0.5], [0.25, 0.75]]))
        assert matrix_power(mat, 1).probs == pytest.approx(mat.probs)

    def test_uniform_idempotent(self):
        mat = TransitionMatrix(probs=np.full((2, 2), 0.5))
        assert matrix_power(mat, 7).probs == pytest.approx(mat.probs)

    def test_hand_multiplication(self):
        mat = TransitionMatrix(probs=np.array([[0.5, 0.5], [0.25, 0.75]]))
        sq = matrix_power(mat, 2)
        assert sq.probs == pytest.approx(np.array([[0.375, 0.625], [0.3125, 0.6875]]))
        assert sq.dt == pytest.approx(2.0)

    def test_rows_stay_stochastic(self, rng):
        mat = TransitionMatrix(probs=rng.dirichlet(np.ones(5), size=5))
        assert np.max(np.abs(matrix_power(mat, 11).probs.sum(axis=1) - 1.0)) < 1e-10
