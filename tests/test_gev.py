"""Tests for the GEV core: distribution functions, links, and site priors.

Expected values are frozen from a 40-digit mpmath evaluation of the closed
forms (notes kept outside the package).  scipy.stats provides an independent
second route for the density and distribution functions.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from spatgev.gev import (
    LINK,
    GevParams,
    LinkedParams,
    gev_cdf,
    gev_log_pdf,
    gev_quantile,
    gev_sample,
    link_forward,
    link_inverse,
    location_at,
    logpdf_derivatives,
    reduced_variate_derivs,
    shape_forward,
    shape_inverse,
    shape_inverse_deriv,
    shape_prior_logdensity,
    trend_forward,
    trend_inverse,
    trend_prior_logdensity,
)

# Frozen oracle values (mpmath, 40 digits).
B_PHI = 0.39562568948831746
A_PHI = 0.06237629434208958
H_03 = 0.2973331023663271
H_M03 = -0.38485719055529576
H_045 = 0.52424937444761441
GUMBEL_Q99 = 4.60014922677658
GEV_Q99_100_30_01 = 275.22928713889688
TREND_INV_D0 = 0.0060927532476461191
BETA44_AT_0 = 2.1875
TREND_PRIOR_LOG_AT_0 = 4.6025223846575737
TREND_PRIOR_MASS_2SD = 0.95449973610364159


class TestLinkConstants:
    def test_frozen_values(self):
        assert_allclose(LINK.b_phi, B_PHI, rtol=1e-14)
        assert_allclose(LINK.a_phi, A_PHI, rtol=1e-14)

    def test_five_decimal_rounding(self):
        assert round(LINK.b_phi, 5) == 0.39563
        assert round(LINK.a_phi, 6) == 0.062376

    def test_identity_at_zero(self):
        assert abs(shape_forward(0.0)) < 1e-12

    def test_unit_slope_at_zero(self):
        eps = 1e-6
        slope = (shape_forward(eps) - shape_forward(-eps)) / (2 * eps)
        assert abs(slope - 1.0) < 1e-6

    def test_point_values(self):
        assert_allclose(shape_forward(0.3), H_03, rtol=1e-13)
        assert_allclose(shape_forward(-0.3), H_M03, rtol=1e-13)
        assert_allclose(shape_forward(0.45), H_045, rtol=1e-13)


class TestShapeLink:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        xi = rng.uniform(-0.499, 0.499, size=100_000)
        back = shape_inverse(shape_forward(xi))
        assert_allclose(back, xi, rtol=1e-10, atol=1e-12)

    def test_monotone(self):
        xi = np.linspace(-0.4999, 0.4999, 5000)
        phi = shape_forward(xi)
        assert np.all(np.diff(phi) > 0)

    def test_inverse_range(self):
        phi = np.linspace(-40.0, 40.0, 2001)
        xi = shape_inverse(phi)
        assert np.all(xi > -0.5) and np.all(xi < 0.5)

    def test_deriv_matches_finite_difference(self):
        # away from the saturating tails where FD cancellation dominates
        phi = np.linspace(-2.0, 0.8, 41)
        eps = 1e-6
        fd = (shape_inverse(phi + eps) - shape_inverse(phi - eps)) / (2 * eps)
        assert_allclose(shape_inverse_deriv(phi), fd, rtol=1e-5, atol=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            shape_forward(0.5)
        with pytest.raises(ValueError):
            shape_forward(-0.5)


class TestTrendLink:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        delta = rng.uniform(-0.00799, 0.00799, size=100_000)
        assert_allclose(trend_inverse(trend_forward(delta)), delta, rtol=1e-10, atol=1e-15)

    def test_odd(self):
        d = np.linspace(0.0, 0.0079, 80)
        assert_allclose(trend_forward(-d), -trend_forward(d), atol=1e-16)

    def test_inverse_at_delta0(self):
        # gamma equal to delta0 itself maps strictly inside the band
        assert_allclose(trend_inverse(0.008), TREND_INV_D0, rtol=1e-13)

    def test_inverse_stays_open_where_tanh_saturates(self):
        # tanh(25) rounds to 1, so without the clamp delta would be delta0
        for gamma in (0.2, 1.0, 1e300):
            assert 0.0 < trend_inverse(gamma) < LINK.delta0
            assert -LINK.delta0 < trend_inverse(-gamma) < 0.0
        d = trend_inverse(np.array([-0.2, 0.0, 0.2]))
        assert np.all(np.abs(d) < LINK.delta0)
        p = link_inverse(LinkedParams(psi=3.0, tau=-1.0, phi=0.0, gamma=0.2))
        assert np.isfinite(link_forward(p).gamma)

    def test_identity_at_zero(self):
        assert trend_forward(0.0) == 0.0
        eps = 1e-6
        slope = (trend_forward(eps) - trend_forward(-eps)) / (2 * eps)
        assert abs(slope - 1.0) < 1e-6

    def test_domain_error(self):
        with pytest.raises(ValueError):
            trend_forward(0.008)


class TestFullLink:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = GevParams(
                mu=float(rng.uniform(0.1, 500.0)),
                sigma=float(rng.uniform(0.01, 200.0)),
                xi=float(rng.uniform(-0.45, 0.45)),
                delta=float(rng.uniform(-0.007, 0.007)),
            )
            q = link_inverse(link_forward(p))
            assert_allclose([q.mu, q.sigma, q.xi, q.delta],
                            [p.mu, p.sigma, p.xi, p.delta], rtol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            link_forward(GevParams(mu=-1.0, sigma=1.0, xi=0.0))
        with pytest.raises(ValueError):
            link_forward(GevParams(mu=1.0, sigma=0.0, xi=0.0))


class TestGevDistribution:
    def test_gumbel_quantile_oracle(self):
        p = GevParams(mu=0.0 + 1.0, sigma=1.0, xi=0.0)  # mu must be > 0 for links only
        p = GevParams(mu=1.0, sigma=1.0, xi=0.0)
        # shift by mu: q = mu - sigma*log(-log(p))
        assert_allclose(gev_quantile(0.99, p), 1.0 + GUMBEL_Q99, rtol=1e-13)

    def test_quantile_oracle_positive_shape(self):
        p = GevParams(mu=100.0, sigma=30.0, xi=0.1)
        assert_allclose(gev_quantile(0.99, p), GEV_Q99_100_30_01, rtol=1e-13)

    @pytest.mark.parametrize("xi", [-0.4, -0.1, 0.0, 0.1, 0.4])
    def test_cdf_quantile_identity(self, xi):
        p = GevParams(mu=10.0, sigma=3.0, xi=xi)
        prob = np.linspace(1e-6, 1 - 1e-6, 10_001)
        back = gev_cdf(gev_quantile(prob, p), p)
        assert_allclose(back, prob, atol=1e-8)

    @pytest.mark.parametrize("xi", [-0.4, -0.1, 0.1, 0.4])
    def test_against_scipy(self, xi):
        # scipy's genextreme uses the opposite sign convention for the shape
        p = GevParams(mu=5.0, sigma=2.0, xi=xi)
        y = np.linspace(-20.0, 60.0, 301)
        ref = stats.genextreme(c=-xi, loc=5.0, scale=2.0)
        assert_allclose(gev_log_pdf(y, p), ref.logpdf(y), rtol=1e-9, atol=1e-12)
        assert_allclose(gev_cdf(y, p), ref.cdf(y), rtol=1e-9, atol=1e-12)

    def test_against_scipy_gumbel(self):
        p = GevParams(mu=5.0, sigma=2.0, xi=0.0)
        y = np.linspace(-20.0, 60.0, 301)
        ref = stats.gumbel_r(loc=5.0, scale=2.0)
        assert_allclose(gev_log_pdf(y, p), ref.logpdf(y), rtol=1e-9)
        assert_allclose(gev_cdf(y, p), ref.cdf(y), rtol=1e-12)

    def test_support_positive_shape(self):
        p = GevParams(mu=10.0, sigma=2.0, xi=0.3)
        lo = 10.0 - 2.0 / 0.3
        assert gev_log_pdf(lo - 1e-6, p) == -np.inf
        assert gev_cdf(lo - 1e-6, p) == 0.0
        assert np.isfinite(gev_log_pdf(lo + 1e-3, p))

    def test_support_negative_shape(self):
        p = GevParams(mu=10.0, sigma=2.0, xi=-0.3)
        hi = 10.0 - 2.0 / (-0.3)
        assert gev_log_pdf(hi + 1e-6, p) == -np.inf
        assert gev_cdf(hi + 1e-6, p) == 1.0
        assert np.isfinite(gev_log_pdf(hi - 1e-3, p))

    def test_continuity_across_small_shape(self):
        # Taylor branch and exact branch agree at the switch point itself:
        # shapes one part in 1e6 either side of it differ only through the
        # genuine (tiny) xi dependence
        y = np.linspace(-3.0, 8.0, 50)
        lo = GevParams(mu=1.0, sigma=1.0, xi=1e-7 * (1 - 1e-6))
        hi = GevParams(mu=1.0, sigma=1.0, xi=1e-7 * (1 + 1e-6))
        assert_allclose(gev_log_pdf(y, lo), gev_log_pdf(y, hi), atol=1e-9)
        assert_allclose(gev_cdf(y, lo), gev_cdf(y, hi), atol=1e-10)

    def test_pdf_integrates_to_one(self):
        for xi in (-0.2, 0.0, 0.25):
            p = GevParams(mu=3.0, sigma=1.5, xi=xi)
            lo = gev_quantile(1e-12, p) if xi <= 0 else 3.0 - 1.5 / xi
            hi = gev_quantile(1.0 - 1e-13, p)
            y = np.linspace(lo + 1e-9, hi, 400_001)
            dens = np.exp(gev_log_pdf(y, p))
            assert_allclose(np.trapezoid(dens, y), 1.0, atol=2e-4)

    def test_quantile_domain(self):
        p = GevParams(mu=1.0, sigma=1.0, xi=0.1)
        with pytest.raises(ValueError):
            gev_quantile(0.0, p)
        with pytest.raises(ValueError):
            gev_quantile(1.0, p)


class TestKernelDerivatives:
    """reduced_variate_derivs and the per-point xi form of the kernel."""

    @pytest.mark.parametrize("z, xi", [
        (-970.0, 0.0), (-3.0, 1e-4), (2.5, -0.3), (-1.5, 0.4), (40.0, 5e-8), (-2.0, -0.45),
    ])
    def test_reduced_variate_derivs_match_mpmath(self, z, xi):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50

        def w(zz, xx):
            return zz if xx == 0 else mpmath.log1p(xx * zz) / xx

        w_z, w_xi, _ = reduced_variate_derivs(np.array([z]), np.array([xi]))
        ref_z = mpmath.diff(lambda t: w(t, mpmath.mpf(xi)), mpmath.mpf(z))
        ref_xi = mpmath.diff(lambda t: w(mpmath.mpf(z), t), mpmath.mpf(xi))
        assert_allclose(w_z[0], float(ref_z), rtol=1e-12)
        assert_allclose(w_xi[0], float(ref_xi), rtol=1e-9, atol=1e-300)

    def test_one_shape_per_point_equals_each_alone(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=40)
        xi = np.concatenate([rng.uniform(-0.3, 0.3, size=38), [0.0, 2e-8]])
        together = logpdf_derivatives(z, xi)
        alone = [logpdf_derivatives(z[k:k + 1], float(xi[k])) for k in range(z.size)]
        for i, values in enumerate(together):
            assert np.array_equal(values, [a[i][0] for a in alone])


class TestTrendLocation:
    def test_location_anchor(self):
        p = GevParams(mu=50.0, sigma=10.0, xi=0.1, delta=0.005)
        assert location_at(p, 1975.0) == 50.0
        assert_allclose(location_at(p, 1985.0), 50.0 * (1 + 0.005 * 10), rtol=1e-14)

    def test_trend_moves_quantiles(self):
        p = GevParams(mu=50.0, sigma=10.0, xi=0.1, delta=0.004)
        q75 = gev_quantile(0.5, p, t=1975.0)
        q13 = gev_quantile(0.5, p, t=2013.0)
        assert q13 > q75
        assert_allclose(q13 - q75, 50.0 * 0.004 * 38.0, rtol=1e-12)


class TestSampling:
    def test_reproducible(self):
        p = GevParams(mu=10.0, sigma=2.0, xi=0.1)
        a = gev_sample(p, 1975.0, 100, np.random.default_rng(5))
        b = gev_sample(p, 1975.0, 100, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_pit_uniform(self):
        p = GevParams(mu=10.0, sigma=2.0, xi=-0.2)
        y = gev_sample(p, 1975.0, 50_000, np.random.default_rng(6))
        u = gev_cdf(y, p)
        # probability integral transform: mean 1/2, var 1/12
        assert abs(np.mean(u) - 0.5) < 0.005
        assert abs(np.var(u) - 1.0 / 12.0) < 0.005


class TestSitePriors:
    def test_shape_prior_at_center(self):
        # at phi=0 the inverse map has unit slope, so the density is the
        # Beta(4,4) value at xi=0 unchanged
        assert_allclose(shape_prior_logdensity(0.0), math.log(BETA44_AT_0), atol=1e-10)

    def test_shape_prior_normalizes(self):
        phi = np.linspace(-12.0, 6.0, 200_001)
        dens = np.exp(shape_prior_logdensity(phi))
        assert_allclose(np.trapezoid(dens, phi), 1.0, atol=1e-6)

    def test_shape_prior_tails(self):
        assert shape_prior_logdensity(-50.0) == -np.inf or shape_prior_logdensity(-50.0) < -100
        assert shape_prior_logdensity(50.0) == -np.inf or shape_prior_logdensity(50.0) < -100

    def test_trend_prior_at_zero(self):
        assert_allclose(trend_prior_logdensity(0.0), TREND_PRIOR_LOG_AT_0, rtol=1e-13)

    def test_trend_prior_mass(self):
        sd = 0.5 * LINK.delta0
        g = np.linspace(-2 * sd, 2 * sd, 100_001)
        mass = np.trapezoid(np.exp(trend_prior_logdensity(g)), g)
        assert_allclose(mass, TREND_PRIOR_MASS_2SD, atol=1e-6)

    def test_shape_prior_symmetric_in_xi(self):
        # Beta(4,4) is symmetric about xi=0; verify through the link
        xi = np.array([0.1, 0.25, 0.4])
        lp_pos = shape_prior_logdensity(shape_forward(xi)) - np.log(
            shape_inverse_deriv(shape_forward(xi))
        )
        lp_neg = shape_prior_logdensity(shape_forward(-xi)) - np.log(
            shape_inverse_deriv(shape_forward(-xi))
        )
        assert_allclose(lp_pos, lp_neg, rtol=1e-10)
