"""Tests for the synthetic data generator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import pdist

from matern_oracle import matern_correlation
from spatgev.errors import ConfigError
from spatgev.evaluate import ad_critical_value, anderson_darling, empirical_variogram
from spatgev.gev import LINK, gev_cdf, shape_forward, trend_inverse
from spatgev.simulate import (
    MAX_SITES,
    Scenario,
    _draw_sites,
    paper_like_scenario,
    simulate_dataset,
)


def _draw_sites_loop(scn, rng):
    """Reference for _draw_sites: each candidate tested against one placed site at a time."""
    min_sep = 0.02 * scn.domain_size
    pts, attempts = [], 0
    while len(pts) < scn.n_sites and attempts < 200 * scn.n_sites:
        cand = rng.uniform(0.0, scn.domain_size, size=2)
        attempts += 1
        if all(np.hypot(*(cand - p)) >= min_sep for p in pts):
            pts.append(cand)
    return np.asarray(pts)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = simulate_dataset(Scenario(n_sites=20), seed=5)
        b = simulate_dataset(Scenario(n_sites=20), seed=5)
        assert np.array_equal(a.truth.eta, b.truth.eta)
        assert np.array_equal(a.dataset.sites, b.dataset.sites)
        for (ya, va), (yb, vb) in zip(a.dataset.records, b.dataset.records):
            assert np.array_equal(ya, yb) and np.array_equal(va, vb)

    def test_different_seed_differs(self):
        a = simulate_dataset(Scenario(n_sites=20), seed=5)
        b = simulate_dataset(Scenario(n_sites=20), seed=6)
        assert not np.array_equal(a.truth.eta, b.truth.eta)


class TestStructure:
    def test_paper_like_shape(self):
        sim = simulate_dataset(paper_like_scenario(), seed=0)
        ds = sim.dataset
        assert ds.n_sites == 60
        assert ds.covariates.shape == (60, 4)
        assert ds.covariate_names == ["c1", "c2", "c3", "c4"]
        assert all(y.size == 50 for _, y in ds.records)
        assert all(yr[-1] == 2013.0 for yr, _ in ds.records)
        assert sim.truth.param_names == ("psi", "tau", "phi")

    def test_sites_lead_mesh_nodes(self):
        sim = simulate_dataset(Scenario(n_sites=25), seed=1)
        assert_allclose(sim.truth.mesh.points[:25], sim.dataset.sites)

    def test_minimum_separation(self):
        sim = simulate_dataset(Scenario(n_sites=40), seed=2)
        assert pdist(sim.dataset.sites).min() >= 0.02 * 100.0

    @pytest.mark.parametrize("n_sites, seed", [(60, 0), (300, 11)])
    def test_site_draws_equal_the_loop(self, n_sites, seed):
        # the same sites, and the generator left in the same state
        scn = Scenario(n_sites=n_sites)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(_draw_sites(scn, a), _draw_sites_loop(scn, b))
        assert a.bit_generator.state == b.bit_generator.state

    def test_site_count_bounded(self):
        Scenario(n_sites=MAX_SITES)
        with pytest.raises(ConfigError, match="n_sites"):
            Scenario(n_sites=MAX_SITES + 1)

    def test_variable_record_lengths(self):
        scn = Scenario(n_sites=30, record_length=None)
        sim = simulate_dataset(scn, seed=3)
        lengths = np.array([y.size for _, y in sim.dataset.records])
        assert lengths.min() >= 30 and lengths.max() <= 80
        assert np.unique(lengths).size > 5

    def test_beta_length_validated(self):
        with pytest.raises(ConfigError):
            Scenario(n_covariates=2, beta_psi=(1.0, 0.5))


class TestDegenerate:
    def test_zero_field_zero_nugget_is_pure_regression(self):
        scn = Scenario(n_sites=15, n_covariates=2,
                       beta_psi=(3.0, 0.4, -0.2), beta_tau=(-1.0, 0.1, 0.0),
                       s_psi=0.0, eps_psi=0.0, s_tau=0.0, eps_tau=0.0,
                       eps_phi=0.0)
        sim = simulate_dataset(scn, seed=4)
        X = np.column_stack([np.ones(15), sim.dataset.covariates])
        assert np.array_equal(sim.truth.eta[0], X @ np.array([3.0, 0.4, -0.2]))
        assert np.array_equal(sim.truth.eta[1], X @ np.array([-1.0, 0.1, 0.0]))
        assert np.all(sim.truth.eta[2] == shape_forward(0.12))


class TestTrend:
    def test_delta_inside_link_interval(self):
        sim = simulate_dataset(paper_like_scenario(trend=True), seed=7)
        gamma = sim.truth.eta[list(sim.truth.param_names).index("gamma")]
        delta = trend_inverse(gamma)
        assert np.all(np.abs(delta) < LINK.delta0)

    def test_median_trend_per_decade(self):
        sim = simulate_dataset(paper_like_scenario(trend=True), seed=8)
        gamma = sim.truth.eta[list(sim.truth.param_names).index("gamma")]
        per_decade = np.median(trend_inverse(gamma)) * 10.0
        assert 0.01 <= per_decade <= 0.02


class TestGenerativeFidelity:
    def test_variogram_recovers_injected_range(self):
        # keep the range well below the domain size (a single realization
        # cannot identify ranges comparable to the domain) and average the
        # variogram over replications to tame estimator noise
        scn = Scenario(n_sites=150, s_psi=0.5, eps_psi=0.1, record_length=5,
                       range_fraction=0.2)
        edges = np.linspace(0.0, 60.0, 14)
        gammas, rho_trues = [], []
        for seed in range(11, 16):
            sim = simulate_dataset(scn, seed=seed)
            X = np.column_stack([np.ones(150), sim.dataset.covariates])
            resid = sim.truth.eta[0] - X @ sim.truth.beta["psi"]
            centers, gamma, counts = empirical_variogram(resid, sim.dataset.sites,
                                                         edges)
            assert np.all(counts > 20)
            gammas.append(gamma)
            rho_trues.append(sim.truth.rho)
        gamma = np.mean(gammas, axis=0)
        rho_true = float(np.mean(rho_trues))
        rho_grid = rho_true * np.geomspace(0.3, 3.0, 241)
        sse = [
            np.sum((gamma - (0.5**2 * (1.0 - matern_correlation(centers, r))
                             + 0.1**2)) ** 2)
            for r in rho_grid
        ]
        rho_hat = rho_grid[int(np.argmin(sse))]
        assert abs(rho_hat / rho_true - 1.0) < 0.30

    def test_observations_match_generating_gev(self):
        sim = simulate_dataset(paper_like_scenario(), seed=9)
        crit = ad_critical_value(0.05)
        passed = 0
        for i, (years, y) in enumerate(sim.dataset.records):
            u = gev_cdf(y, sim.truth.natural(i))
            stat, _ = anderson_darling(u)
            passed += stat < crit
        rate = passed / sim.dataset.n_sites
        assert 0.85 <= rate <= 1.0
