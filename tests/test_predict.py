"""Tests for return levels, effects, ungauged prediction, and predictive
sampling.

A degenerate posterior (every draw identical) turns most operations into
closed forms; an honest small smoothing run checks the stochastic paths.
"""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spatgev.errors import ConfigError, DataError
from spatgev.gev import LINK, GevParams, gev_quantile, gev_sample
from spatgev.latent import (
    LatentStructure,
    McmcConfig,
    ParamModel,
    SmoothResult,
    build_structure,
    smooth_step,
)
from spatgev.predict import (
    UngaugedSite,
    detrend_observations,
    effect_table,
    order_stat_band,
    posterior_predictive,
    predict_ungauged,
    return_level,
    return_level_draws,
    ungauged_return_level,
)
from spatgev.simulate import Scenario, simulate_dataset
from spatgev.site_fit import fit_all_sites

GUMBEL_Q99 = 4.60014922677658  # -log(-log(0.99))


def _degenerate_result(beta_by_param, designs, names_by_param=None, eps=0.25,
                       n_draws=50, trend=False):
    """SmoothResult whose draws all equal the given coefficients exactly."""
    J = next(iter(designs.values())).shape[0]
    order = ["psi", "tau", "phi"] + (["gamma"] if trend else [])
    params = []
    eta_rows = []
    nu = []
    for name in order:
        X = designs[name]
        names_l = tuple((names_by_param or {}).get(name, ()))
        params.append(ParamModel(name=name, design=X, covariate_names=names_l))
        beta = np.asarray(beta_by_param[name], dtype=float)
        eta_rows.append(X @ beta)
        nu.append(beta)
    q = len(order)
    structure = LatentStructure(
        eta_hat=np.concatenate(eta_rows),
        prec_blocks=np.tile(np.eye(q), (J, 1, 1)),
        params=params,
        mesh=None,
        A=None,
        s0=1.0,
        rho0=1.0,
        eps0=1.0,
    )
    nu = np.concatenate(nu)
    return SmoothResult(
        structure=structure,
        theta_draws=np.full((n_draws, q), eps),
        eta_draws=np.tile(np.concatenate(eta_rows), (n_draws, 1)),
        nu_draws=np.tile(nu, (n_draws, 1)),
        t0=LINK.t0,
    )


def _simple_result(trend=False, mu=2.0, sigma_over_mu=0.5, n_draws=50, eps=0.25):
    J = 3
    ones = np.ones((J, 1))
    designs = {nm: ones for nm in ("psi", "tau", "phi", "gamma")}
    beta = {
        "psi": [np.log(mu)],
        "tau": [np.log(sigma_over_mu)],
        "phi": [0.0],
        "gamma": [0.002],
    }
    return _degenerate_result(beta, designs, eps=eps, n_draws=n_draws, trend=trend)


@pytest.fixture(scope="module")
def honest_result():
    """Small end-to-end smoothing run with a spatial location field."""
    scn = Scenario(n_sites=16, n_covariates=2,
                   beta_psi=(3.4, 0.4, 0.0), beta_tau=(-1.0, 0.0, 0.0),
                   s_psi=0.4, eps_psi=0.15, s_tau=0.0, eps_tau=0.15,
                   record_length=40)
    sim = simulate_dataset(scn, seed=42)
    ds = sim.dataset
    stacked = fit_all_sites(ds.records, trend=False)
    X = np.column_stack([np.ones(16), ds.covariates])
    structure = build_structure(
        stacked, designs={"psi": X}, spatial={"psi": True},
        sites=ds.sites, mesh=sim.truth.mesh,
        covariate_names={"psi": tuple(ds.covariate_names)},
    )
    config = McmcConfig(n_chains=2, n_iterations=1500, n_kept=300, seed=3)
    return smooth_step(structure, config)[1], ds, sim.truth


class TestReturnLevel:
    def test_gumbel_closed_form(self):
        res = _simple_result(mu=1.0, sigma_over_mu=1.0)
        curve = return_level(res, site=0, periods=100.0)
        assert_allclose(curve.mean[0], 1.0 + GUMBEL_Q99, rtol=1e-9)
        # degenerate draws: the interval collapses onto the mean
        assert_allclose(curve.lower[0], curve.upper[0], rtol=1e-12)

    def test_matches_scalar_quantile(self):
        res = _simple_result(mu=2.0, sigma_over_mu=0.5)
        p = GevParams(mu=2.0, sigma=1.0, xi=0.0)
        for T in (10.0, 50.0, 200.0):
            draws = return_level_draws(res, 1, T)
            assert_allclose(draws, gev_quantile(1.0 - 1.0 / T, p), rtol=1e-9)

    def test_monotone_in_period_per_draw(self, honest_result):
        res, _, _ = honest_result
        periods = np.array([2.0, 5.0, 10.0, 50.0, 100.0, 500.0])
        for site in (0, 7):
            draws = np.column_stack(
                [return_level_draws(res, site, T) for T in periods])
            assert np.all(np.diff(draws, axis=1) > 0)

    def test_interval_contains_mean(self, honest_result):
        res, _, _ = honest_result
        for site in range(res.structure.n_sites):
            curve = return_level(res, site, [10.0, 100.0])
            assert np.all(curve.lower <= curve.mean)
            assert np.all(curve.mean <= curve.upper)

    def test_trend_neutral_at_anchor_year(self):
        res = _simple_result(trend=True)
        at_anchor = return_level(res, 0, 100.0, year=1975.0)
        no_year = return_level(res, 0, 100.0)
        assert_allclose(at_anchor.mean, no_year.mean, rtol=1e-12)

    def test_trend_shifts_location_linearly(self):
        res = _simple_result(trend=True)  # gamma 0.002 -> delta ~ 0.002
        from spatgev.gev import trend_inverse
        delta = trend_inverse(0.002)
        q1 = return_level(res, 0, 100.0, year=1985.0).mean[0]
        q0 = return_level(res, 0, 100.0, year=1975.0).mean[0]
        assert_allclose(q1 - q0, 2.0 * delta * 10.0, rtol=1e-9)

    def test_trend_anchored_at_the_posterior_t0(self):
        # the same draws anchored 15 years later give the same levels 15 years later
        res = _simple_result(trend=True)
        later = dataclasses.replace(res, t0=1990.0)
        for year in (None, 1985.0):
            shifted = None if year is None else year + 15.0
            assert np.array_equal(return_level(later, 0, 100.0, year=shifted).mean,
                                  return_level(res, 0, 100.0, year=year).mean)
        assert return_level(later, 0, 100.0, year=2000.0).mean[0] < \
            return_level(res, 0, 100.0, year=2000.0).mean[0]

    def test_errors(self):
        res = _simple_result()
        with pytest.raises(DataError):
            return_level(res, 99, 100.0)
        with pytest.raises(ConfigError):
            return_level(res, 0, 0.5)


class TestEffectTable:
    def _result(self):
        J = 4
        c1 = np.array([0.0, 1.0, 2.0, 4.0])
        c2 = np.array([1.0, -1.0, 0.5, 0.0])
        X = np.column_stack([np.ones(J), c1, c2])
        ones = np.ones((J, 1))
        beta = {"psi": [1.0, 0.3, 0.0], "tau": [-0.7], "phi": [0.2]}
        designs = {"psi": X, "tau": ones, "phi": ones}
        res = _degenerate_result(beta, designs,
                                 names_by_param={"psi": ("c1", "c2")})
        return res, {"c1": c1, "c2": c2}

    def test_zero_coefficient_gives_unit_effect(self):
        res, cov = self._result()
        rows = {r[0]: r[1:] for r in effect_table(res, cov)}
        assert_allclose(rows["c2"], (1.0, 1.0), rtol=1e-12)

    def test_pure_location_covariate_closed_form(self):
        res, cov = self._result()
        rows = {r[0]: r[1:] for r in effect_table(res, cov)}
        med, q1, q3 = np.percentile(cov["c1"], [50.0, 25.0, 75.0])
        assert_allclose(rows["c1"][0], np.exp(0.3 * (q1 - med)), rtol=1e-10)
        assert_allclose(rows["c1"][1], np.exp(0.3 * (q3 - med)), rtol=1e-10)

    def test_effect_independent_of_period_for_location_covariate(self):
        res, cov = self._result()
        r100 = {r[0]: r[1:] for r in effect_table(res, cov, period=100.0)}
        r20 = {r[0]: r[1:] for r in effect_table(res, cov, period=20.0)}
        assert_allclose(r100["c1"], r20["c1"], rtol=1e-10)

    def test_spatial_component_row(self, honest_result):
        res, ds, _ = honest_result
        cov = {nm: ds.covariates[:, j] for j, nm in enumerate(ds.covariate_names)}
        rows = {r[0]: r[1:] for r in effect_table(res, cov)}
        assert "spatial_psi" in rows
        lo, hi = rows["spatial_psi"]
        assert lo < 1.0 < hi

    def test_missing_covariate_values(self):
        res, cov = self._result()
        with pytest.raises(ConfigError):
            effect_table(res, {"c1": cov["c1"]})


def _covariates(ds, site):
    return dict(zip(ds.covariate_names, ds.covariates[site]))


class TestUngauged:
    def test_clone_mean_and_total_variance(self, honest_result):
        res, ds, truth = honest_result
        site = 3
        X = res.structure.params[0].design
        ug = UngaugedSite(coords=ds.sites[site], covariates=_covariates(ds, site))
        pred = predict_ungauged(res, ug, np.random.default_rng(0))
        beta = res.nu_block("psi", "beta")
        u = res.nu_block("psi", "u")
        a = res.structure.A[site]
        reg = beta @ X[site] + u @ a
        k = res.structure.theta_names.index("eps_psi")
        eps2 = res.theta_draws[:, k] ** 2
        n = reg.size
        se_mean = np.sqrt((reg.var() + eps2.mean()) / n)
        assert abs(pred["psi"].mean() - reg.mean()) < 4.0 * se_mean
        expected_var = reg.var(ddof=1) + eps2.mean()
        assert abs(pred["psi"].var(ddof=1) / expected_var - 1.0) < 0.25

    def test_zero_nugget_is_deterministic(self):
        res = _simple_result(eps=0.0)
        ug = UngaugedSite(coords=np.zeros(2))
        a = predict_ungauged(res, ug, np.random.default_rng(1))
        b = predict_ungauged(res, ug, np.random.default_rng(2))
        for nm in a:
            assert_allclose(a[nm], b[nm], rtol=0, atol=0)

    def test_gauged_site_is_tighter_than_clone(self, honest_result):
        res, ds, _ = honest_result
        site = 5
        ug = UngaugedSite(coords=ds.sites[site], covariates=_covariates(ds, site))
        pred = predict_ungauged(res, ug, np.random.default_rng(7))
        gauged = res.eta_by_param("psi")[:, site]
        width = lambda v: np.quantile(v, 0.95) - np.quantile(v, 0.05)
        assert width(gauged) < width(pred["psi"])

    def test_outside_mesh_rejected(self, honest_result):
        res, ds, _ = honest_result
        ug = UngaugedSite(coords=np.array([1e6, 1e6]), covariates={"c1": 0.0, "c2": 0.0})
        with pytest.raises(DataError):
            predict_ungauged(res, ug, np.random.default_rng(0))

    def test_bad_design_rows(self, honest_result):
        res, ds, _ = honest_result
        ug = UngaugedSite(coords=ds.sites[0], covariates={"c1": 1.0})
        with pytest.raises(ConfigError, match="'c2'"):
            predict_ungauged(res, ug, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="'c1', 'c2'"):
            predict_ungauged(res, UngaugedSite(coords=ds.sites[0]),
                             np.random.default_rng(0))

    def test_design_row_follows_the_names(self):
        pm = ParamModel(name="psi", design=np.ones((3, 3)), covariate_names=("b", "a"))
        assert np.array_equal(pm.design_row({"a": 2.0, "b": 3.0, "z": 9.0}), [1.0, 3.0, 2.0])
        unlabeled = ParamModel(name="psi", design=np.ones((3, 2)))
        with pytest.raises(ConfigError, match="1 covariate columns but 0 names"):
            unlabeled.design_row({"c1": 1.0})

    def test_ungauged_curve_shape(self, honest_result):
        res, ds, _ = honest_result
        ug = UngaugedSite(coords=ds.sites[2], covariates=_covariates(ds, 2))
        curve = ungauged_return_level(res, ug, [10.0, 100.0],
                                      np.random.default_rng(3))
        assert curve.mean.shape == (2,)
        assert np.all(curve.mean[1] > curve.mean[0])


class TestPosteriorPredictive:
    def test_quantile_self_consistency(self):
        res = _simple_result(mu=2.0, sigma_over_mu=0.5, n_draws=50)
        rng = np.random.default_rng(11)
        samples = posterior_predictive(res, 0, rng, n_per_draw=6000)
        q99 = np.quantile(samples, 0.99)
        target = return_level(res, 0, 100.0).mean[0]
        assert abs(q99 / target - 1.0) < 0.015

    def test_seeded_bit_identical(self, honest_result):
        res, _, _ = honest_result
        a = posterior_predictive(res, 1, np.random.default_rng(5), n_per_draw=10)
        b = posterior_predictive(res, 1, np.random.default_rng(5), n_per_draw=10)
        assert np.array_equal(a, b)

    def test_sample_count(self, honest_result):
        res, _, _ = honest_result
        out = posterior_predictive(res, 0, np.random.default_rng(1), n_per_draw=7)
        assert out.shape == (7 * res.n_draws,)


class TestOrderStatBand:
    def test_single_observation_band(self):
        p = GevParams(mu=3.0, sigma=1.0, xi=0.1)
        band = order_stat_band(1, p)
        assert_allclose(band[0, 0], gev_quantile(0.025, p), rtol=1e-12)
        assert_allclose(band[0, 1], gev_quantile(0.975, p), rtol=1e-12)

    def test_median_rank_symmetry(self):
        from scipy import stats
        n, k = 9, 5
        lo = stats.beta.ppf(0.025, k, n + 1 - k)
        hi = stats.beta.ppf(0.975, k, n + 1 - k)
        assert_allclose(lo, 1.0 - hi, rtol=1e-12)
        p = GevParams(mu=3.0, sigma=1.0, xi=0.0)
        band = order_stat_band(n, p)
        assert_allclose(band[k - 1, 0], gev_quantile(lo, p), rtol=1e-12)

    def test_rankwise_coverage(self):
        p = GevParams(mu=10.0, sigma=4.0, xi=0.15)
        band = order_stat_band(25, p)
        rng = np.random.default_rng(17)
        years = np.zeros(25)
        inside = 0
        total = 0
        for _ in range(300):
            y = np.sort(gev_sample(p, years, 25, rng))
            inside += int(np.sum((y >= band[:, 0]) & (y <= band[:, 1])))
            total += 25
        cover = inside / total
        assert 0.93 < cover < 0.97

    def test_invalid_length(self):
        with pytest.raises(ConfigError):
            order_stat_band(0, GevParams(mu=1.0, sigma=1.0, xi=0.0))


class TestDetrend:
    def test_inverts_trend_location(self):
        p = GevParams(mu=20.0, sigma=5.0, xi=0.1, delta=0.004)
        years = np.arange(1950.0, 2010.0)
        rng = np.random.default_rng(23)
        y = gev_sample(p, years, years.size, rng)
        flat = detrend_observations(y, years, delta=0.004)
        factor = 1.0 + 0.004 * (years - 1975.0)
        assert_allclose(flat * factor, y, rtol=1e-12)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(DataError):
            detrend_observations(np.ones(3), np.array([1975.0, 1980.0, 2400.0]),
                                 delta=-0.0079)
