"""Tests for log-score CV, benchmark fits, and fit diagnostics.

Frozen constants below were derived with mpmath at 30 digits:
  0.9 * 100^(-1/5)   = 0.358296453498148
  0.8 / sqrt(650)    = 0.031378581622109
  2*ln(2) - 1        = 0.386294361119891
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from spatgev import evaluate
from spatgev.errors import ConfigError, DataError
from spatgev.evaluate import (
    LGM_VARIANTS,
    LOG_SCORE_FLOOR,
    CvConfig,
    RsmFit,
    ad_critical_value,
    anderson_darling,
    empirical_variogram,
    fit_const,
    fit_mle,
    fit_rsm,
    kde_bandwidth,
    kde_density,
    log_score,
    make_cv_plan,
    run_cv,
    se_of_mean_diff,
)
from spatgev.gev import (
    LINK,
    GevParams,
    LinkedParams,
    gev_log_pdf,
    gev_sample,
    link_inverse,
)
from spatgev.latent import McmcConfig
from spatgev.predict import posterior_predictive
from spatgev.simulate import Scenario, simulate_dataset
from spatgev.site_fit import fit_all_sites, fit_site, site_loglik
from spatgev.spde import build_mesh

BW_100 = 0.358296453498148
SE_650 = 0.031378581622109
AD_HALF = 0.386294361119891


def _records(p, n_sites, n_years, seed, start=1964.0):
    rng = np.random.default_rng(seed)
    years = np.arange(start, start + n_years)
    return [(years, gev_sample(p, years, n_years, rng)) for _ in range(n_sites)]


class TestLogScore:
    def test_reference_values(self):
        assert log_score(0.5) == 1.0
        assert log_score(1.0) == 0.0
        assert_allclose(log_score(0.25), 2.0)

    def test_negative_density_rejected(self):
        with pytest.raises(DataError):
            log_score(-1e-9)

    def test_floor_exclusion(self):
        bits = evaluate._bits_from_density([0.5, 0.5, 2.0**-51, 2.0**-50])
        assert list(bits[:2]) == [1.0, 1.0]
        assert math.isnan(bits[2])
        assert bits[3] == 50.0  # the floor itself is scored
        assert 2.0**-50 == LOG_SCORE_FLOOR

    def test_all_excluded(self):
        below = [0.0, 2.0**-60, 2.0**-51, np.nextafter(LOG_SCORE_FLOOR, 0.0)]
        assert np.all(np.isnan(evaluate._bits_from_density(below)))


class TestKde:
    def test_bandwidth_frozen_constant(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=100)
        sd = np.std(samples, ddof=1)
        iqr = np.subtract(*np.percentile(samples, [75.0, 25.0])) / 1.34
        samples = samples / min(sd, iqr)  # now min(sd, IQR/1.34) = 1 exactly
        assert_allclose(kde_bandwidth(samples), BW_100, rtol=1e-12)

    def test_matches_scipy_at_same_bandwidth(self):
        rng = np.random.default_rng(1)
        samples = rng.gamma(3.0, 2.0, size=400)
        h = kde_bandwidth(samples)
        ref = stats.gaussian_kde(samples, bw_method=h / np.std(samples, ddof=1))
        ys = np.linspace(samples.min(), samples.max(), 9)
        assert_allclose(kde_density(samples, ys), ref(ys), rtol=1e-10)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(3.0, 2.0, size=500)
        grid = np.linspace(samples.min() - 8.0, samples.max() + 8.0, 4001)
        total = integrate.trapezoid(kde_density(samples, grid), grid)
        assert abs(total - 1.0) < 1e-3

    def test_order_invariant(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=200)
        shuffled = samples[rng.permutation(200)]
        assert_allclose(kde_density(samples, 0.3), kde_density(shuffled, 0.3),
                        rtol=1e-12)

    def test_array_of_points_matches_each_alone(self):
        rng = np.random.default_rng(5)
        samples = rng.gamma(3.0, 2.0, size=2000)
        ys = np.concatenate([rng.gamma(3.0, 2.0, size=13), [-50.0, 1e3]])
        alone = [kde_density(samples, y) for y in ys]
        assert np.array_equal(kde_density(samples, ys), alone)

    def test_degenerate_samples_rejected(self):
        with pytest.raises(DataError):
            kde_density(np.ones(10), 1.0)
        with pytest.raises(DataError):
            kde_density(np.array([2.0]), 1.0)


class TestSeOfMeanDiff:
    def test_frozen_constant(self):
        c = 0.8 / math.sqrt(2.0)
        diffs = np.array([-c, c])  # sample sd exactly 0.8
        assert_allclose(np.std(diffs, ddof=1), 0.8, rtol=1e-15)
        assert_allclose(se_of_mean_diff(diffs, 13.0, 50.0), SE_650, rtol=1e-12)

    def test_constant_diffs(self):
        assert se_of_mean_diff(np.full(20, 0.37), 13.0, 50.0) == 0.0

    def test_space_scaling(self):
        rng = np.random.default_rng(4)
        d = rng.normal(size=100)
        a = se_of_mean_diff(d, 13.0, 50.0)
        b = se_of_mean_diff(d, 13.0, 100.0)
        assert_allclose(a / b, math.sqrt(2.0), rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            se_of_mean_diff(np.array([]), 13.0, 50.0)


class TestConstAndMle:
    def test_pooled_recovery(self):
        p = GevParams(mu=30.0, sigma=8.0, xi=0.0)
        fit = fit_const(_records(p, 30, 50, seed=5))
        assert abs(fit.mu / 30.0 - 1.0) < 0.03
        assert abs(fit.sigma / 8.0 - 1.0) < 0.05
        assert abs(fit.xi) < 0.03

    def test_identical_sites_close_to_single_fit(self):
        # the transformed-shape prior enters once either way, but its weight
        # relative to the likelihood differs with pooling; agreement is tight
        # though not exact
        p = GevParams(mu=30.0, sigma=8.0, xi=0.1)
        rec = _records(p, 1, 60, seed=6)[0]
        pooled = fit_const([rec, rec, rec])
        single = fit_const([rec])
        assert abs(pooled.mu / single.mu - 1.0) < 5e-3
        assert abs(pooled.xi - single.xi) < 0.02

    def test_mle_matches_sitewise(self):
        p = GevParams(mu=25.0, sigma=6.0, xi=0.1)
        records = _records(p, 3, 45, seed=7)
        fits = fit_mle(fit_all_sites(records, trend=False))
        for (years, y), f in zip(records, fits):
            ref = fit_site(y, years, trend=False)
            assert_allclose([math.log(f.mu)], [ref.eta_hat[0]], rtol=1e-8)


class TestRsm:
    def test_single_site_order_zero_collapses_to_const(self):
        p = GevParams(mu=30.0, sigma=8.0, xi=0.1)
        records = _records(p, 1, 80, seed=8)
        coords = np.array([[0.0, 0.0]])
        rsm = fit_rsm(records, coords, np.zeros((1, 0)), orders=(0, 0, 0))
        const = fit_const(records)
        prm = link_inverse(LinkedParams(*rsm.linked_at(coords, np.zeros((1, 0)))[0]))
        assert rsm.converged
        # one site and constant designs: the two fits climb one objective
        assert abs(prm.mu / const.mu - 1.0) < 1e-7
        assert abs(prm.sigma / const.sigma - 1.0) < 1e-7
        assert abs(prm.xi / const.xi - 1.0) < 1e-7

    def test_zero_coefficients_recovered(self):
        p = GevParams(mu=30.0, sigma=8.0, xi=0.1)
        rng = np.random.default_rng(9)
        coords = rng.uniform(0.0, 10.0, size=(25, 2))
        covs = rng.normal(size=(25, 1))
        records = _records(p, 25, 40, seed=10)
        rsm = fit_rsm(records, coords, covs, covariate_names=("c1",))
        assert rsm.converged
        # covariate and polynomial coefficients should vanish
        assert np.all(np.abs(rsm.coef["psi"][1:]) < 0.1)
        assert abs(rsm.coef["psi"][0] - math.log(30.0)) < 0.05
        linked = rsm.linked_at(coords, covs)
        assert np.std(linked[:, 0]) < 0.1

    def test_recovers_covariate_effect(self):
        rng = np.random.default_rng(11)
        coords = rng.uniform(0.0, 10.0, size=(20, 2))
        covs = rng.normal(size=(20, 1))
        years = np.arange(1970.0, 2010.0)
        records = []
        for i in range(20):
            p = GevParams(mu=float(np.exp(3.0 + 0.5 * covs[i, 0])), sigma=5.0, xi=0.1)
            records.append((years, gev_sample(p, years, years.size, rng)))
        rsm = fit_rsm(records, coords, covs, covariate_names=("c1",))
        assert abs(rsm.coef["psi"][1] - 0.5) < 0.1


def _rsm_problem():
    """RSM's objective on 25 sites with one covariate, its designs and records."""
    rng = np.random.default_rng(9)
    coords = rng.uniform(0.0, 10.0, size=(25, 2))
    covs = rng.normal(size=(25, 1))
    records = _records(GevParams(mu=30.0, sigma=8.0, xi=0.1), 25, 40, seed=10)
    shell = RsmFit(coef={}, coord_mean=coords.mean(axis=0),
                   coord_scale=coords.std(axis=0), covariate_names=("c1",))
    designs = shell._designs(coords, covs)
    return evaluate._rsm_objective(designs, records), designs, records


class TestRsmDerivatives:
    def test_match_central_differences_of_summed_site_loglik(self):
        (f, derivs), designs, records = _rsm_problem()
        sizes = [X.shape[1] for X in designs]
        x = np.random.default_rng(12).normal(scale=0.02, size=sum(sizes))
        x[0] += math.log(30.0)
        x[sizes[0]] += math.log(8.0 / 30.0)
        x[sizes[0] + sizes[1]] += 0.1

        def summed(c):
            # each site's (psi, tau, phi) from its own design rows
            linked = np.column_stack([X @ part for X, part in
                                      zip(designs, np.split(c, np.cumsum(sizes)[:-1]))])
            return sum(site_loglik(z, y, years) for z, (years, y) in zip(linked, records))

        assert_allclose(f(x), summed(x), rtol=1e-13)
        g, H = derivs(x)
        h = 1e-6
        fd_g = np.array([(summed(x + e) - summed(x - e)) / (2.0 * h)
                         for e in np.eye(x.size) * h])
        # at this step the second differences' truncation error is about
        # 1e-6 of max|H|, and their rounding error far below it
        h = 1e-4
        steps = np.eye(x.size) * h
        fd_H = np.empty((x.size, x.size))
        for i, ei in enumerate(steps):
            for j, ej in enumerate(steps[:i + 1]):
                fd_H[i, j] = fd_H[j, i] = (
                    summed(x + ei + ej) - summed(x + ei - ej)
                    - summed(x - ei + ej) + summed(x - ei - ej)) / (4.0 * h * h)
        assert np.max(np.abs(g - fd_g)) <= 1e-6 * np.max(np.abs(g))
        assert np.max(np.abs(H - fd_H)) <= 1e-5 * np.max(np.abs(H))


class TestCvPlan:
    def _dataset(self):
        scn = Scenario(n_sites=12, n_covariates=2,
                       beta_psi=(3.4, 0.4, -0.25), beta_tau=(-1.0, 0.15, 0.0),
                       record_length=50)
        return simulate_dataset(scn, seed=13).dataset

    def test_filter_and_split(self):
        ds = self._dataset()
        # one station starts too late, another misses a test year
        years, y = ds.records[0]
        ds.records[0] = (years[years >= 1985.0], y[years >= 1985.0])
        years, y = ds.records[1]
        keep = years != 2007.0
        ds.records[1] = (years[keep], y[keep])
        plan = make_cv_plan(ds, CvConfig(n_heldout=3, seed=1))
        used = np.concatenate([plan.train_sites, plan.heldout_sites])
        assert 0 not in used and 1 not in used
        assert np.intersect1d(plan.train_sites, plan.heldout_sites).size == 0
        assert plan.test_years[0] == 2001.0 and plan.test_years[-1] == 2013.0
        assert plan.n_eff_time == 13.0

    def test_seeded_determinism(self):
        ds = self._dataset()
        a = make_cv_plan(ds, CvConfig(n_heldout=3, seed=5))
        b = make_cv_plan(ds, CvConfig(n_heldout=3, seed=5))
        c = make_cv_plan(ds, CvConfig(n_heldout=3, seed=6))
        assert np.array_equal(a.heldout_sites, b.heldout_sites)
        assert not np.array_equal(a.heldout_sites, c.heldout_sites)

    def test_too_few_eligible(self):
        ds = self._dataset()
        with pytest.raises(ConfigError):
            make_cv_plan(ds, CvConfig(n_heldout=12))


@pytest.fixture(scope="module")
def cv_result():
    scn = Scenario(n_sites=14, n_covariates=2,
                   beta_psi=(3.4, 0.5, 0.0), beta_tau=(-1.0, 0.1, 0.0),
                   s_psi=0.0, eps_psi=0.3, s_tau=0.0, eps_tau=0.12,
                   record_length=50)
    sim = simulate_dataset(scn, seed=17)
    plan = make_cv_plan(sim.dataset, CvConfig(n_heldout=3, seed=2))
    mcmc = McmcConfig(n_chains=2, n_iterations=500, n_kept=150, seed=4)
    cv = CvConfig(variants=["CONST", "MLE", "RSM", "LGM-IID", "LGM-COV"], n_samples=8000)
    res = run_cv(sim.dataset, plan, cv, mcmc=mcmc, seed=9)
    return res, plan


@pytest.fixture(scope="module")
def cv_max_steps():
    """One run_cv with the default variants, recording every max step it runs."""
    import spatgev.evaluate as evaluate

    scn = Scenario(n_sites=12, n_covariates=1, beta_psi=(3.4, 0.5),
                   beta_tau=(-1.0, 0.1), record_length=50)
    ds = simulate_dataset(scn, seed=21).dataset
    cv = CvConfig(n_heldout=3, seed=3, n_samples=500)
    plan = make_cv_plan(ds, cv)
    stacked_calls, mle_params = [], []
    with pytest.MonkeyPatch.context() as mp:
        fit_all = evaluate.fit_all_sites
        mle = evaluate.fit_mle

        def counted(*args, **kwargs):
            stacked_calls.append(fit_all(*args, **kwargs))
            return stacked_calls[-1]

        def recorded(stacked):
            mle_params.append(mle(stacked))
            return mle_params[-1]

        mp.setattr(evaluate, "fit_all_sites", counted)
        mp.setattr(evaluate, "fit_mle", recorded)
        res = run_cv(ds, plan, cv, mcmc=McmcConfig(n_chains=1, n_iterations=60,
                                                   n_kept=10, seed=2), seed=1)
    train_ds = ds.subset(plan.train_sites).filter_years(hi=plan.train_end_year)
    return res, stacked_calls, mle_params, train_ds


class TestCvMaxStepCache:
    def test_one_max_step_for_default_variants(self, cv_max_steps):
        res, stacked_calls, _, _ = cv_max_steps
        assert res.failures == {}
        assert set(res.within.models) == {"CONST", "MLE", "RSM", "LGM-IID",
                                          "LGM-COV", "LGM-FULL"}
        assert len(stacked_calls) == 1

    def test_mle_params_equal_standalone_fit(self, cv_max_steps):
        _, _, mle_params, train_ds = cv_max_steps
        assert len(mle_params) == 1
        ref = fit_mle(fit_all_sites(train_ds.records, trend=False))
        assert len(ref) == len(mle_params[0])
        for got, want in zip(mle_params[0], ref):
            assert got == want


class TestRunCv:
    def test_tables_complete(self, cv_result):
        res, plan = cv_result
        assert res.failures == {}
        assert set(res.within.models) == {"CONST", "MLE", "RSM", "LGM-IID", "LGM-COV"}
        # sitewise ML cannot predict at unobserved sites
        assert "MLE" not in res.out_of_site.models
        n_within = plan.train_sites.size * plan.test_years.size
        n_out = plan.heldout_sites.size * plan.test_years.size
        for m in res.within.models:
            assert res.within.n_scored[m] + res.within.n_excluded[m] == n_within
        for m in res.out_of_site.models:
            assert res.out_of_site.n_scored[m] + res.out_of_site.n_excluded[m] == n_out

    def test_no_time_leakage(self, cv_result):
        res, plan = cv_result
        assert res.within.max_train_year <= plan.train_end_year

    def test_diff_antisymmetric(self, cv_result):
        res, _ = cv_result
        for table in (res.within, res.out_of_site):
            assert_allclose(table.diff, -table.diff.T, atol=1e-12)
            assert np.all(np.diag(table.diff) == 0.0)
            off = ~np.eye(len(table.models), dtype=bool)
            assert np.all(table.se[off] >= 0.0)

    def test_covariate_model_beats_iid_out_of_site(self, cv_result):
        # data carry a strong psi covariate effect and no field
        res, _ = cv_result
        assert res.out_of_site.mean["LGM-COV"] < res.out_of_site.mean["LGM-IID"]
        assert res.out_of_site.mean["LGM-COV"] < res.out_of_site.mean["CONST"]

    def test_unknown_variant(self, cv_result):
        _, plan = cv_result
        scn = Scenario(n_sites=12, record_length=50)
        ds = simulate_dataset(scn, seed=3).dataset
        with pytest.raises(ConfigError):
            run_cv(ds, make_cv_plan(ds, CvConfig(n_heldout=3)), CvConfig(variants=["NOPE"]))


def _per_cell_tables(ds, plan, cv, mcmc, seed, mesh):
    """run_cv's tables for LGM variants from a loop that draws a predictive
    sample set at the first cell of each (site, year if trend) and estimates
    the density cell by cell."""
    names = list(ds.covariate_names or [])
    train_ds = ds.subset(plan.train_sites).filter_years(hi=plan.train_end_year)
    cells = {"within": evaluate._test_observations(ds, plan.train_sites, plan.test_years),
             "out": evaluate._test_observations(ds, plan.heldout_sites, plan.test_years)}
    train_pos = {int(s): k for k, s in enumerate(plan.train_sites)}
    rng = np.random.default_rng(seed)
    bits = {"within": {}, "out": {}}
    for name in cv.variants:
        spec = LGM_VARIANTS[name]
        stacked = fit_all_sites(train_ds.records, trend=spec.trend,
                                station_ids=train_ds.station_ids)
        result = evaluate._fit_lgm(ds, spec, plan, names, mcmc, mesh, stacked, LINK.t0)
        total = cv.n_samples_trend if spec.trend else cv.n_samples
        n_per = max(1, round(total / result.n_draws))
        for mode in ("within", "out"):
            cache, out = {}, []
            for s, yr, v in cells[mode]:
                key = (s, yr if spec.trend else None)
                if key not in cache:
                    target = (train_pos[s] if mode == "within" else
                              evaluate._ungauged_for(ds, spec, s, names))
                    cache[key] = posterior_predictive(result, target, rng, year=key[1],
                                                      n_per_draw=n_per)
                out.append(evaluate._bits_from_density(kde_density(cache[key], v)))
            bits[mode][name] = np.array(out)
    max_year = max(float(np.max(r[0])) for r in train_ds.records)
    return tuple(evaluate._build_table(bits[mode], plan, max_year)
                 for mode in ("within", "out"))


class TestRunCvGrouping:
    """run_cv draws each predictive sample set once and scores its cells at once."""

    VARIANTS = ("LGM-COV", "LGM-FULLT")

    @pytest.fixture(scope="class")
    def runs(self):
        scn = Scenario(n_sites=12, n_covariates=1, beta_psi=(3.4, 0.5),
                       beta_tau=(-1.0, 0.1), trend=True, record_length=50)
        ds = simulate_dataset(scn, seed=21).dataset
        cv = CvConfig(n_heldout=3, seed=3, variants=list(self.VARIANTS), n_samples=500,
                      n_samples_trend=200)
        plan = make_cv_plan(ds, cv)
        mesh = build_mesh(ds.sites)
        mcmc = McmcConfig(n_chains=1, n_iterations=60, n_kept=10, seed=2)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            kde = evaluate.kde_density

            def counted(samples, y):
                calls.append(np.size(y))
                return kde(samples, y)

            mp.setattr(evaluate, "kde_density", counted)
            res = run_cv(ds, plan, cv, mcmc=mcmc, seed=1, mesh=mesh)
        ref = _per_cell_tables(ds, plan, cv, mcmc, seed=1, mesh=mesh)
        return res, ref, calls, plan

    def test_tables_equal_per_cell_reference(self, runs):
        res, (within, out), _, _ = runs
        assert res.failures == {}
        for got, want in ((res.within, within), (res.out_of_site, out)):
            assert got.models == want.models == list(self.VARIANTS)
            assert got.mean == want.mean
            assert got.n_scored == want.n_scored
            assert got.n_excluded == want.n_excluded
            assert np.array_equal(got.diff, want.diff, equal_nan=True)
            assert np.array_equal(got.se, want.se, equal_nan=True)
            assert got.max_train_year == want.max_train_year

    def test_one_density_estimate_per_sample_set(self, runs):
        _, _, calls, plan = runs
        n_sites = plan.train_sites.size + plan.heldout_sites.size
        n_years = plan.test_years.size
        # stationary: one set per site scores its 13 years; trend: one per cell
        assert calls == [n_years] * n_sites + [1] * (n_sites * n_years)


class TestAndersonDarling:
    def test_frozen_single_value(self):
        stat, clamped = anderson_darling([0.5])
        assert_allclose(stat, AD_HALF, rtol=1e-12)
        assert clamped == 0

    def test_boundary_clamped_and_flagged(self):
        stat, clamped = anderson_darling([0.0, 0.5, 1.0])
        assert clamped == 2 and np.isfinite(stat)

    def test_sensitive_to_tail_outlier(self):
        u = (np.arange(1, 21) - 0.5) / 20  # perfect plotting positions
        clean, _ = anderson_darling(u)
        v = u.copy()
        v[0] = 1e-9
        corrupt, _ = anderson_darling(v)
        assert clean < 0.1
        assert corrupt > 10.0 * clean

    def test_outside_unit_interval(self):
        with pytest.raises(DataError):
            anderson_darling([0.5, 1.2])

    def test_against_scipy_uniform_transform(self):
        # scipy's anderson tests normality; push normal PITs through and
        # compare statistics on the same data
        rng = np.random.default_rng(21)
        x = rng.normal(size=80)
        ref = stats.anderson(x, dist="norm", method="interpolate").statistic
        # scipy estimates mean/sd; plug the same estimates into the PIT
        u = stats.norm.cdf(x, loc=x.mean(), scale=x.std(ddof=1))
        stat, _ = anderson_darling(u)
        assert_allclose(stat, ref, rtol=1e-10)

    def test_uniform_critical_value(self):
        rng = np.random.default_rng(22)
        stats_ = [anderson_darling(rng.uniform(size=50))[0] for _ in range(2000)]
        q95 = np.quantile(stats_, 0.95)
        assert 2.3 < q95 < 2.7  # asymptotic 5% point is 2.492
        assert ad_critical_value(0.05) == 2.492
        with pytest.raises(ConfigError):
            ad_critical_value(0.33)


class TestVariogram:
    def test_independent_residuals_flat(self):
        rng = np.random.default_rng(23)
        coords = rng.uniform(0.0, 10.0, size=(150, 2))
        vals = rng.normal(size=150)
        edges = np.array([0.0, 2.0, 4.0, 6.0, 9.0])
        centers, gamma, counts = empirical_variogram(vals, coords, edges)
        assert np.all(counts > 100)
        assert np.all((gamma > 0.8) & (gamma < 1.2))
        assert_allclose(centers, [1.0, 3.0, 5.0, 7.5])

    def test_matern_field_rises_to_sill(self):
        from spatgev.spde import build_mesh, fem_matrices, precision_matrix, sample_field
        rng = np.random.default_rng(24)
        sites = rng.uniform(0.0, 20.0, size=(180, 2))
        mesh = build_mesh(sites)
        C, G = fem_matrices(mesh)
        Q = precision_matrix(C, G, rho=4.0, s=0.7)
        vals = sample_field(Q, rng)[:180]
        edges = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0])
        _, gamma, counts = empirical_variogram(vals, sites, edges)
        assert np.all(counts > 30)
        assert gamma[0] < gamma[-1]
        assert 0.5 * 0.7**2 < gamma[-1] < 1.8 * 0.7**2

    def test_duplicate_coordinates_in_zero_bin(self):
        coords = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
        vals = np.array([1.0, 2.0, 5.0])
        edges = np.array([0.0, 0.5, 4.0])
        _, gamma, counts = empirical_variogram(vals, coords, edges)
        assert counts[0] == 1
        assert_allclose(gamma[0], 0.5 * (2.0 - 1.0) ** 2)

    def test_empty_bin_is_nan(self):
        coords = np.array([[0.0, 0.0], [5.0, 0.0]])
        vals = np.array([0.0, 1.0])
        edges = np.array([0.0, 1.0, 6.0])
        _, gamma, counts = empirical_variogram(vals, coords, edges)
        assert counts[0] == 0 and math.isnan(gamma[0])
        assert counts[1] == 1

    def test_input_validation(self):
        with pytest.raises(DataError):
            empirical_variogram([1.0], np.zeros((1, 2)), np.array([0.0, 1.0]))
        with pytest.raises(DataError):
            empirical_variogram([1.0, 2.0], np.zeros((3, 2)), np.array([0.0, 1.0]))
