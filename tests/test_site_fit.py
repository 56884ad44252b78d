"""Tests for per-site generalized maximum likelihood.

scipy.stats.genextreme.fit provides an independent route to the same optimum
when the site priors are switched off; consistency and calibration are checked
on simulated records.  The exact gradient and Hessian are checked against
50-digit mpmath differentiation of the log-likelihood and against central
differences, and the Newton mode against a multi-start Nelder-Mead search.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from spatgev.errors import DataError
from spatgev.gev import (
    LINK,
    XI_SWITCH,
    XZ_SWITCH,
    GevParams,
    gev_sample,
    link_forward,
    location_at,
    quantile,
    shape_forward,
    shape_inverse,
    trend_inverse,
)
from spatgev.site_fit import (
    EIG_FLOOR,
    SiteFit,
    fit_all_sites,
    fit_site,
    site_loglik,
    site_loglik_derivatives,
)


def _central_diff(f, x, rel_step=1e-6):
    """Central differences of f along each coordinate: row i is d f / d x_i.

    For a scalar f this is the gradient, for a gradient the Hessian; an
    oracle independent of the exact derivatives.
    """
    rows = []
    for i in range(x.size):
        h = rel_step * max(abs(x[i]), 1.0)
        e = np.zeros_like(x)
        e[i] = h
        rows.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h))
    return np.array(rows)


def _record(p, n, seed, t0=1975.0):
    rng = np.random.default_rng(seed)
    years = np.arange(t0 - n // 2, t0 - n // 2 + n)
    y = gev_sample(p, years, n, rng)
    return years, y


class TestSiteLoglik:
    def test_matches_direct_sum(self):
        p = GevParams(mu=40.0, sigma=12.0, xi=0.15, delta=0.002)
        years, y = _record(p, 50, 1)
        lp = link_forward(p)
        z = np.array([lp.psi, lp.tau, lp.phi, lp.gamma])
        from spatgev.gev import gev_log_pdf, shape_prior_logdensity, trend_prior_logdensity

        direct = float(np.sum(gev_log_pdf(y, p, t=years)))
        assert_allclose(site_loglik(z, y, years, include_priors=False), direct, rtol=1e-12)
        full = direct + shape_prior_logdensity(lp.phi) + trend_prior_logdensity(lp.gamma)
        assert_allclose(site_loglik(z, y, years), full, rtol=1e-12)

    def test_stationary_vector(self):
        p = GevParams(mu=40.0, sigma=12.0, xi=0.15)
        years, y = _record(p, 50, 2)
        lp = link_forward(p)
        z3 = np.array([lp.psi, lp.tau, lp.phi])
        from spatgev.gev import gev_log_pdf, shape_prior_logdensity

        expect = float(np.sum(gev_log_pdf(y, p, t=years))) + shape_prior_logdensity(lp.phi)
        assert_allclose(site_loglik(z3, y, years), expect, rtol=1e-12)

    def test_rejects_nonpositive_location(self):
        # a trend pushing mu_t through zero within the record is invalid
        y = np.full(20, 5.0)
        years = np.arange(1800.0, 1820.0)  # far from the anchor
        z = np.array([math.log(5.0), -1.0, 0.0, 0.0079])
        assert site_loglik(z, y, years) == -np.inf

    def test_nonfinite_params(self):
        years, y = _record(GevParams(40.0, 12.0, 0.1), 30, 3)
        assert site_loglik(np.array([np.nan, 0.0, 0.0]), y, years) == -np.inf
        assert site_loglik(np.array([400.0, 0.0, 0.0]), y, years) == -np.inf


class TestFitSite:
    def test_matches_scipy_mle(self):
        # priors off: same objective as plain GEV maximum likelihood
        p = GevParams(mu=30.0, sigma=8.0, xi=0.12)
        years, y = _record(p, 200, 11)
        fit = fit_site(y, years, trend=False, include_priors=False)
        c, loc, scale = stats.genextreme.fit(y)
        ll_scipy = float(np.sum(stats.genextreme.logpdf(y, c, loc, scale)))
        ll_ours = float(np.sum(stats.genextreme.logpdf(
            y, -_xi(fit), math.exp(fit.eta_hat[0]),
            math.exp(fit.eta_hat[0] + fit.eta_hat[1]))))
        assert ll_ours >= ll_scipy - 1e-5
        assert abs(ll_ours - ll_scipy) < 1e-3
        assert_allclose(-_xi(fit), c, atol=0.02)

    def test_converges_with_small_gradient(self):
        p = GevParams(mu=50.0, sigma=15.0, xi=-0.1, delta=0.003)
        years, y = _record(p, 60, 12)
        fit = fit_site(y, years, trend=True)
        assert fit.converged
        negf = lambda z: -site_loglik(z, y, years)
        g = _central_diff(negf, fit.eta_hat)
        assert np.abs(g).max() < 1e-5
        assert not fit.hessian_repaired
        assert fit.n_obs == 60

    def test_consistency_large_sample(self):
        # years stay within +-200 of the anchor so the trend keeps mu_t > 0
        p = GevParams(mu=30.0, sigma=8.0, xi=0.12, delta=0.001)
        years, y = _record(p, 400, 13)
        fit = fit_site(y, years, trend=True)
        lp = link_forward(p)
        truth = np.array([lp.psi, lp.tau, lp.phi, lp.gamma])
        se = np.sqrt(np.diag(np.linalg.inv(fit.precision)))
        assert np.all(np.abs(fit.eta_hat - truth) < 4 * se + 1e-3)

    def test_precision_calibration(self):
        # repeated fits: sampling sd of the psi estimate should match the
        # sd reported by the inverse precision, within broad MC bounds
        p = GevParams(mu=30.0, sigma=8.0, xi=0.1)
        psis, sds = [], []
        for rep in range(60):
            years, y = _record(p, 100, 100 + rep)
            fit = fit_site(y, years, trend=False)
            psis.append(fit.eta_hat[0])
            sds.append(math.sqrt(np.linalg.inv(fit.precision)[0, 0]))
        ratio = np.std(psis) / np.mean(sds)
        assert 0.7 < ratio < 1.4

    def test_anchor_shift_leaves_location_curve(self):
        # shifting both the years and the anchor leaves mu_t unchanged
        p = GevParams(mu=45.0, sigma=10.0, xi=0.1, delta=0.004)
        years, y = _record(p, 60, 14)
        fit_a = fit_site(y, years, trend=True, t0=1975.0)
        fit_b = fit_site(y, years + 21.0, trend=True, t0=1996.0)
        pa = _natural(fit_a)
        pb = _natural(fit_b)
        mu_a = location_at(pa, years, t0=1975.0)
        mu_b = location_at(pb, years + 21.0, t0=1996.0)
        assert_allclose(mu_b, mu_a, rtol=1e-6)

    def test_priors_act_on_small_samples(self):
        p = GevParams(mu=30.0, sigma=8.0, xi=0.35)
        years, y = _record(p, 12, 15)
        with_p = fit_site(y, years, trend=False, include_priors=True)
        without = fit_site(y, years, trend=False, include_priors=False)
        # the generalized objective is maximized by its own mode
        assert site_loglik(with_p.eta_hat, y, years) >= site_loglik(without.eta_hat, y, years)
        assert not np.allclose(with_p.eta_hat, without.eta_hat)

    def test_min_record_length(self):
        p = GevParams(mu=30.0, sigma=8.0, xi=0.1)
        years, y = _record(p, 9, 16)
        with pytest.raises(DataError):
            fit_site(y, years, trend=True)
        yr10, y10 = _record(p, 10, 17)
        fit = fit_site(y10, yr10, trend=True)
        assert isinstance(fit, SiteFit)
        yr5, y5 = _record(p, 4, 18)
        with pytest.raises(DataError):
            fit_site(y5, yr5, trend=False)
        yr, y = _record(p, 5, 19)
        assert fit_site(y, yr, trend=False).n_obs == 5

    def test_nan_years_dropped(self):
        p = GevParams(mu=30.0, sigma=8.0, xi=0.1)
        years, y = _record(p, 40, 20)
        y[::7] = np.nan
        fit = fit_site(y, years, trend=True)
        assert fit.n_obs == int(np.isfinite(y).sum())

    def test_record_without_a_mode_carries_no_weight(self):
        # a constant series has no maximum: the fit ends unconverged and its
        # pseudo-observation must not be pooled as a precise one
        y, years = np.full(10, 2e12), 1950.0 + np.arange(10.0)
        fit = fit_site(y, years, trend=True)
        assert not fit.converged
        assert np.linalg.eigvalsh(fit.precision).max() <= EIG_FLOOR

    def test_negative_data_rejected(self):
        y = -np.abs(np.random.default_rng(21).normal(size=30)) - 1.0
        with pytest.raises(DataError):
            fit_site(y, np.arange(1960.0, 1990.0), trend=False)


# ---------------------------------------------------------------------------
# The exact derivatives against 50-digit differentiation and central
# differences
# ---------------------------------------------------------------------------

T0 = LINK.t0
YEARS = T0 + 5.0 * np.arange(-6.0, 6.0)


def _mp_loglik(z, y, years, include_priors):
    """site_loglik in mpmath arithmetic on the exact float inputs.

    Written from the model's formulas alone: no clamp, no small-shape
    branch, log1p for the reduced variate at every shape.
    """
    mpf = mpmath.mpf
    psi, tau, phi = z[0], z[1], z[2]
    k = 1 / mpf(LINK.c_phi)
    e = mpmath.exp((phi - mpf(LINK.a_phi)) / mpf(LINK.b_phi))
    q = -mpmath.expm1(-e)
    xi = q**k - mpf(0.5)
    mu = mpmath.exp(psi)
    sigma = mu * mpmath.exp(tau)
    d0 = mpf(LINK.delta0)
    delta = d0 * mpmath.tanh(z[3] / d0) if len(z) == 4 else 0
    ll = 0
    for yi, ti in zip(y, years):
        s = (mpf(yi) - mu * (1 + delta * (mpf(ti) - mpf(T0)))) / sigma
        w = mpmath.log1p(xi * s) / xi
        ll += -mpmath.log(sigma) - (1 + xi) * w - mpmath.exp(-w)
    if include_priors:
        jac = k * q ** (k - 1) * mpmath.exp(-e) * e / mpf(LINK.b_phi)
        ll += (mpmath.log(140) + 3 * mpmath.log(xi + mpf(0.5))
               + 3 * mpmath.log(mpf(0.5) - xi) + mpmath.log(jac))
        if len(z) == 4:
            sd = d0 / 2
            ll += -mpmath.log(2 * mpmath.pi) / 2 - mpmath.log(sd) - (z[3] / sd) ** 2 / 2
    return ll


def _mp_derivatives(z, y, years, include_priors):
    """Gradient and Hessian by mpmath.diff at 50 significant digits."""
    p = z.size
    with mpmath.workdps(50):
        x = [mpmath.mpf(float(v)) for v in z]

        def partial(*axes):
            orders = [0] * p
            for a in axes:
                orders[a] += 1
            return float(mpmath.diff(lambda *v: _mp_loglik(v, y, years, include_priors),
                                     x, orders))

        grad = np.array([partial(i) for i in range(p)])
        hess = np.array([[partial(i, j) for j in range(p)] for i in range(p)])
    return grad, hess


def _case(xi_target, psi, tau, gamma, probs, edge):
    """A link-space point and a 12-year record standardized to GEV quantiles.

    Two observations sit just either side of |xi*z| = XZ_SWITCH, where the
    derivatives leave their power series; with edge, a third sits where
    1 + xi*z = 1e-6, next to the support's end.
    """
    phi = float(shape_forward(xi_target))
    xi = float(shape_inverse(phi))
    zs = quantile(np.asarray(probs), 0.0, 1.0, xi)
    if abs(xi) >= 1e-3:
        zs[0] = XZ_SWITCH / xi * (1.0 + 1e-9)
        zs[1] = -XZ_SWITCH / xi * (1.0 - 1e-9)
    if edge:
        zs[2] = (1e-6 - 1.0) / xi
    mu = math.exp(psi)
    sigma = mu * math.exp(tau)
    z = [psi, tau, phi]
    mu_t = mu
    if gamma is not None:
        z.append(gamma)
        mu_t = mu * (1.0 + float(trend_inverse(gamma)) * (YEARS - T0))
    return np.array(z), mu_t + sigma * zs


ORACLE = settings(derandomize=True, deadline=None, max_examples=30)
shapes = st.one_of(
    st.floats(-XI_SWITCH, XI_SWITCH),  # the small-shape band
    st.sampled_from([0.0, XI_SWITCH * (1 - 1e-3), -XI_SWITCH * (1 + 1e-3)]),  # its edge
    st.floats(-0.49, 0.49),
)
far_shapes = st.one_of(st.floats(-0.49, -0.05), st.floats(0.05, 0.49))
probs = st.lists(st.floats(0.05, 0.95), min_size=12, max_size=12)
gammas = st.one_of(st.none(), st.floats(-0.012, 0.012))


class TestDerivatives:
    @ORACLE
    @given(xi=shapes, psi=st.floats(-1.0, 6.0), tau=st.floats(-2.5, 0.5), gamma=gammas,
           probs=probs, include_priors=st.booleans())
    @example(xi=0.0, psi=3.0, tau=-1.0, gamma=0.004, probs=[0.5] * 12, include_priors=True)
    @example(xi=5e-8, psi=1.0, tau=0.3, gamma=None, probs=[0.1, 0.9] * 6,
             include_priors=False)
    def test_match_mpmath_inside_the_support(self, xi, psi, tau, gamma, probs,
                                             include_priors):
        # per entry, within 1e-10 of the value plus 1e-12 of the largest entry
        z, y = _case(xi, psi, tau, gamma, probs, edge=False)
        grad, hess = site_loglik_derivatives(z, y, YEARS, include_priors=include_priors)
        ref_g, ref_h = _mp_derivatives(z, y, YEARS, include_priors)
        assert_allclose(grad, ref_g, rtol=1e-10, atol=1e-12 * np.abs(ref_g).max())
        assert_allclose(hess, ref_h, rtol=1e-10, atol=1e-12 * np.abs(ref_h).max())
        assert np.array_equal(hess, hess.T)

    @ORACLE
    @given(xi=far_shapes, psi=st.floats(-1.0, 6.0), tau=st.floats(-2.5, 0.5),
           gamma=gammas, probs=probs, include_priors=st.booleans())
    def test_match_mpmath_next_to_the_support_edge(self, xi, psi, tau, gamma, probs,
                                                   include_priors):
        # 1 + xi*z = 1e-6 holds only to float rounding of about 1e-16 in z,
        # a relative 1e-10 of 1 + xi*z that exp(-w) = (1 + xi*z)^(-1/xi)
        # multiplies by up to 20: the entries agree within 1e-7
        z, y = _case(xi, psi, tau, gamma, probs, edge=True)
        grad, hess = site_loglik_derivatives(z, y, YEARS, include_priors=include_priors)
        ref_g, ref_h = _mp_derivatives(z, y, YEARS, include_priors)
        assert_allclose(grad, ref_g, rtol=1e-7, atol=1e-9 * np.abs(ref_g).max())
        assert_allclose(hess, ref_h, rtol=1e-7, atol=1e-9 * np.abs(ref_h).max())

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(xi=st.floats(-0.45, 0.45), psi=st.floats(-1.0, 6.0), tau=st.floats(-2.5, 0.5),
           gamma=gammas, probs=probs, include_priors=st.booleans())
    def test_match_central_differences(self, xi, psi, tau, gamma, probs, include_priors):
        # within 1e-6 of the largest entry: differences of site_loglik for
        # the gradient, of the exact gradient for the Hessian
        z, y = _case(xi, psi, tau, gamma, probs, edge=False)

        def f(x):
            return site_loglik(x, y, YEARS, include_priors=include_priors)

        def grad_at(x):
            return site_loglik_derivatives(x, y, YEARS, include_priors=include_priors)[0]

        grad, hess = site_loglik_derivatives(z, y, YEARS, include_priors=include_priors)
        fd_g = _central_diff(f, z)
        fd_h = _central_diff(grad_at, z)
        assert np.abs(grad - fd_g).max() <= 1e-6 * np.abs(fd_g).max()
        assert np.abs(hess - fd_h).max() <= 1e-6 * np.abs(fd_h).max()


class TestMode:
    @pytest.mark.parametrize("trend", [False, True])
    def test_no_nelder_mead_start_finds_a_higher_loglik(self, trend):
        # scipy's Nelder-Mead, used here only as a reference, started from
        # the truth and from the points two standard errors off the fit in
        # every coordinate (four sign patterns) where the support allows
        from scipy.optimize import minimize

        cases = [(GevParams(40.0, 12.0, 0.15, 0.002), 40, 61),
                 (GevParams(30.0, 8.0, -0.2, -0.003), 25, 62),
                 (GevParams(5.0, 4.0, 0.4, 0.0), 15, 63)]
        for p, n, seed in cases:
            years, y = _record(p, n, seed)
            fit = fit_site(y, years, trend=trend)
            assert fit.converged

            def negf(z):  # finite outside the support, so the simplex can shrink
                return min(-site_loglik(z, y, years), 1e300)

            lp = link_forward(p)
            truth = np.array([lp.psi, lp.tau, lp.phi, lp.gamma][: fit.eta_hat.size])
            off = 2.0 * np.sqrt(np.diag(np.linalg.inv(fit.precision)))
            signs = np.resize([1.0, -1.0], off.size)
            starts = [truth] + [start for start in (fit.eta_hat + off, fit.eta_hat - off,
                                                    fit.eta_hat + signs * off,
                                                    fit.eta_hat - signs * off)
                                if np.isfinite(site_loglik(start, y, years))]
            assert len(starts) >= 3
            for start in starts:
                res = minimize(negf, start, method="Nelder-Mead",
                               options=dict(maxiter=5000, xatol=1e-9, fatol=1e-12))
                assert -res.fun <= fit.loglik + 1e-9


class TestStackedFits:
    def test_parameter_major_layout(self):
        p = GevParams(mu=30.0, sigma=8.0, xi=0.1, delta=0.001)
        records = [_record(p, 40, 30 + i) for i in range(3)]
        stacked = fit_all_sites(records, trend=True)
        assert stacked.n_sites == 3 and stacked.n_params == 4
        assert stacked.eta.shape == (12,)
        for i, f in enumerate(stacked.site_fits):
            assert_allclose(stacked.eta_by_param[:, i], f.eta_hat)
            assert_allclose(stacked.prec_blocks[i], f.precision)

    def test_empty_records(self):
        with pytest.raises(DataError):
            fit_all_sites([])

    def test_site_error_names_station(self):
        p = GevParams(mu=30.0, sigma=8.0, xi=0.1)
        records = [_record(p, 30, 50), _record(p, 3, 51)]
        with pytest.raises(DataError, match=r"^station 1: need at least 5"):
            fit_all_sites(records, trend=False)
        with pytest.raises(DataError, match=r"^station B02: need at least 5"):
            fit_all_sites(records, trend=False, station_ids=["A01", "B02"])


def _xi(fit):
    from spatgev.gev import shape_inverse

    return float(shape_inverse(fit.eta_hat[2]))


def _natural(fit):
    from spatgev.gev import shape_inverse, trend_inverse

    mu = math.exp(fit.eta_hat[0])
    return GevParams(
        mu=mu,
        sigma=mu * math.exp(fit.eta_hat[1]),
        xi=float(shape_inverse(fit.eta_hat[2])),
        delta=float(trend_inverse(fit.eta_hat[3])) if fit.eta_hat.size == 4 else 0.0,
    )
