"""Tests for per-site generalized maximum likelihood.

scipy.stats.genextreme.fit provides an independent route to the same optimum
when the site priors are switched off; consistency and calibration are checked
on simulated records.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from spatgev.errors import DataError
from spatgev.gev import GevParams, gev_sample, link_forward, location_at
from spatgev.site_fit import (
    SiteFit,
    fit_all_sites,
    fit_site,
    site_loglik,
    _fd_gradient,
)


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
        g = _fd_gradient(negf, fit.eta_hat)
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

    def test_negative_data_rejected(self):
        y = -np.abs(np.random.default_rng(21).normal(size=30)) - 1.0
        with pytest.raises(DataError):
            fit_site(y, np.arange(1960.0, 1990.0), trend=False)


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
