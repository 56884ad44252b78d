"""Tests for cross-validated forward covariate selection.

The fold scorer is checked against a dense generalized-ridge oracle, the
search itself against pseudo-observations with known regression structure,
and the spatial decision against field-dominated versus nugget-dominated
data.
"""

import multiprocessing
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spatgev import latent
from spatgev._sparse import ArrowFactor
from spatgev.errors import ConfigError
from spatgev.gev import GevParams, gev_sample
from spatgev.selection import (
    SelectionConfig,
    UnivariateObs,
    choose_within,
    cv_score,
    diagonalize,
    forward_select,
    make_folds,
    select_all,
)
from spatgev import spde
from spatgev.site_fit import fit_all_sites
from spatgev.spde import build_mesh, fem_matrices, precision_matrix, projector, sample_field

SIGMA_BETA = 10.0


def _pseudo_obs(seed, n=40, coef=(1.0, 0.8), noise=0.3, n_cov=3):
    """eta = b0 + b1*x1 + noise; x2.. are pure nuisance."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_cov))
    eta = coef[0] + coef[1] * X[:, 0] + noise * rng.normal(size=n)
    var = np.full(n, 0.02)
    eta += np.sqrt(var) * rng.normal(size=n)
    obs = UnivariateObs(name="psi", eta=eta, var=var)
    cov = {f"x{j + 1}": X[:, j] for j in range(n_cov)}
    return obs, cov


class TestDiagonalize:
    def test_matches_inverted_blocks(self):
        p = GevParams(mu=30.0, sigma=8.0, xi=0.1)
        rng = np.random.default_rng(5)
        years = np.arange(1970.0, 2015.0)
        records = [(years, gev_sample(p, years, years.size, rng)) for _ in range(3)]
        stacked = fit_all_sites(records, trend=False)
        obs = diagonalize(stacked)
        assert set(obs) == {"psi", "tau", "phi"}
        for a, name in enumerate(("psi", "tau", "phi")):
            assert_allclose(obs[name].eta, stacked.eta_by_param[a])
            for i in range(3):
                cov = np.linalg.inv(stacked.prec_blocks[i])
                assert_allclose(obs[name].var[i], cov[a, a], rtol=1e-12)


class TestFolds:
    def test_partition(self):
        folds = make_folds(23, 10, seed=3)
        assert len(folds) == 10
        sizes = sorted(len(f) for f in folds)
        assert sizes[0] >= 2 and sizes[-1] <= 3
        allidx = np.concatenate(folds)
        assert np.array_equal(np.sort(allidx), np.arange(23))

    def test_deterministic_in_seed(self):
        a = make_folds(30, 5, seed=7)
        b = make_folds(30, 5, seed=7)
        c = make_folds(30, 5, seed=8)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_too_many_folds(self):
        with pytest.raises(ConfigError):
            make_folds(4, 5)


class TestChooseWithin:
    def test_prefers_smaller_model_inside_margin(self):
        assert choose_within([1.0, 0.90, 0.895], 0.01) == 1

    def test_takes_minimum_outside_margin(self):
        assert choose_within([1.0, 0.99, 0.90], 0.01) == 2

    def test_zero_margin_is_first_argmin(self):
        assert choose_within([0.5, 0.4, 0.4], 0.0) == 1


class TestCvScoreOracle:
    def test_matches_dense_ridge_no_spatial(self):
        obs, cov = _pseudo_obs(seed=2, n=30)
        X = np.column_stack([np.ones(30), cov["x1"]])
        config = SelectionConfig(n_folds=5, seed=1)
        folds = make_folds(30, 5, seed=1)
        score, theta = cv_score(obs, X, False, None, folds, config)
        eps2 = theta[0] ** 2
        rmses = []
        for test in folds:
            train = np.setdiff1d(np.arange(30), test)
            W = np.diag(1.0 / (obs.var[train] + eps2))
            P = X[train].T @ W @ X[train] + np.eye(2) / SIGMA_BETA**2
            m = np.linalg.solve(P, X[train].T @ W @ obs.eta[train])
            rmses.append(np.sqrt(np.mean((obs.eta[test] - X[test] @ m) ** 2)))
        assert_allclose(score, np.mean(rmses), rtol=1e-10)

    def test_matches_dense_ridge_spatial(self):
        rng = np.random.default_rng(9)
        sites = rng.uniform(0.0, 10.0, size=(25, 2))
        mesh = build_mesh(sites)
        C, G = fem_matrices(mesh)
        A = projector(mesh, sites)
        Q = precision_matrix(C, G, rho=3.0, s=0.5)
        eta = 2.0 + (A @ sample_field(Q, rng)) + 0.1 * rng.normal(size=25)
        obs = UnivariateObs(name="psi", eta=eta, var=np.full(25, 0.01))
        X = np.ones((25, 1))
        config = SelectionConfig(n_folds=5, seed=0, grid_size=4)
        folds = make_folds(25, 5, seed=0)
        score, theta = cv_score(obs, X, True, mesh, folds, config, A=A)
        eps2 = theta[0] ** 2
        Z = np.hstack([X, A])
        n_nodes = mesh.n_nodes
        Q_nu = np.zeros((1 + n_nodes, 1 + n_nodes))
        Q_nu[0, 0] = 1.0 / SIGMA_BETA**2
        Q_nu[1:, 1:] = precision_matrix(C, G, rho=theta[2], s=theta[1]).toarray()
        rmses = []
        for test in folds:
            train = np.setdiff1d(np.arange(25), test)
            W = np.diag(1.0 / (obs.var[train] + eps2))
            P = Z[train].T @ W @ Z[train] + Q_nu
            m = np.linalg.solve(P, Z[train].T @ W @ obs.eta[train])
            rmses.append(np.sqrt(np.mean((obs.eta[test] - Z[test] @ m) ** 2)))
        assert_allclose(score, np.mean(rmses), rtol=1e-8)


    def test_folds_reuse_the_structure_order(self, monkeypatch):
        # the folds factor the candidate's one system with the held-out
        # weights at zero: one arrow layout (and its reverse Cuthill-McKee
        # order) per candidate, none per fold
        rng = np.random.default_rng(9)
        sites = rng.uniform(0.0, 10.0, size=(25, 2))
        mesh = build_mesh(sites)
        obs = UnivariateObs(name="psi", eta=rng.normal(size=25), var=np.full(25, 0.01))
        layouts, n_ordered = [], []
        init = ArrowFactor.__init__
        order = latent.arrow_layout

        def recorded(self, layout, values):
            layouts.append(layout)
            init(self, layout, values)

        monkeypatch.setattr(ArrowFactor, "__init__", recorded)
        monkeypatch.setattr(latent, "arrow_layout",
                            lambda *args: n_ordered.append(1) or order(*args))
        folds = make_folds(25, 5, seed=0)
        cv_score(obs, np.ones((25, 1)), True, mesh, folds,
                 SelectionConfig(n_folds=5, grid_size=2), A=projector(mesh, sites))
        assert len(layouts) == 2**3 + 5  # the grid, then the folds
        assert all(layout is layouts[0] for layout in layouts)
        assert len(n_ordered) == 1


class TestForwardSearch:
    def test_recovers_signal_covariate_first(self):
        hits = 0
        for seed in range(15):
            obs, cov = _pseudo_obs(seed=100 + seed)
            res = forward_select(obs, cov, config=SelectionConfig(n_folds=5))
            if res.path[1].added == "x1":
                hits += 1
        assert hits >= 14

    def test_path_is_nested(self):
        obs, cov = _pseudo_obs(seed=3)
        res = forward_select(obs, cov, config=SelectionConfig(n_folds=5))
        assert res.path[0].names == ()
        for prev, rec in zip(res.path, res.path[1:]):
            assert rec.names == prev.names + (rec.added,)
        assert len(res.path) == 4  # intercept plus three candidates
        assert set(res.chosen) <= set(res.path[-1].names)

    def test_exact_tie_breaks_lexicographically(self):
        obs, cov = _pseudo_obs(seed=4, n_cov=1)
        col = cov["x1"]
        twins = {"a": col, "b": col.copy()}
        res = forward_select(obs, twins, config=SelectionConfig(n_folds=5))
        assert res.path[1].added == "a"

    def test_nuisance_only_selects_intercept(self):
        rng = np.random.default_rng(12)
        eta = 1.5 + 0.4 * rng.normal(size=50)
        obs = UnivariateObs(name="psi", eta=eta, var=np.full(50, 0.02))
        cov = {f"x{j}": rng.normal(size=50) for j in range(3)}
        res = forward_select(obs, cov, config=SelectionConfig(n_folds=5))
        assert res.chosen == ()

    def test_max_steps_caps_path(self):
        obs, cov = _pseudo_obs(seed=6)
        res = forward_select(obs, cov,
                             config=SelectionConfig(n_folds=5, max_steps=1))
        assert len(res.path) == 2

    def test_wrong_covariate_length(self):
        obs, cov = _pseudo_obs(seed=7)
        cov["bad"] = np.ones(5)
        with pytest.raises(ConfigError):
            forward_select(obs, cov, config=SelectionConfig(n_folds=5))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SelectionConfig(n_folds=1).validate()
        with pytest.raises(ConfigError):
            SelectionConfig(within_pct=1.5).validate()
        with pytest.raises(ConfigError):
            SelectionConfig(grid_size=1).validate()


class TestSpatialDecision:
    def _field_obs(self, seed, field_scale, nugget):
        rng = np.random.default_rng(seed)
        sites = rng.uniform(0.0, 10.0, size=(50, 2))
        mesh = build_mesh(sites)
        C, G = fem_matrices(mesh)
        eta = 2.0 + nugget * rng.normal(size=50)
        if field_scale > 0:
            Q = precision_matrix(C, G, rho=0.35 * mesh.diameter, s=field_scale)
            eta = eta + sample_field(Q, rng)[:50]
        obs = UnivariateObs(name="psi", eta=eta, var=np.full(50, 0.005))
        return obs, mesh, sites

    def test_keeps_field_when_field_dominates(self):
        obs, mesh, sites = self._field_obs(seed=21, field_scale=0.6, nugget=0.1)
        res = forward_select(obs, {}, mesh=mesh, sites=sites,
                             config=SelectionConfig(n_folds=5, grid_size=5))
        assert res.spatial
        assert res.score < res.score_no_spatial

    def test_drops_field_on_pure_nugget(self):
        obs, mesh, sites = self._field_obs(seed=22, field_scale=0.0, nugget=0.4)
        res = forward_select(obs, {}, mesh=mesh, sites=sites,
                             config=SelectionConfig(n_folds=5, grid_size=5))
        assert not res.spatial


    def test_field_spectrum_solved_once_per_mesh(self, monkeypatch):
        # every candidate structure shares the mesh and so its eigenproblem
        obs, mesh, sites = self._field_obs(seed=23, field_scale=0.6, nugget=0.1)
        rng = np.random.default_rng(23)
        cov = {"x1": rng.normal(size=50), "x2": rng.normal(size=50)}
        calls = []
        eigenvalues = spde.field_eigenvalues

        def counted(*args):
            calls.append(1)
            return eigenvalues(*args)

        monkeypatch.setattr(spde, "field_eigenvalues", counted)
        forward_select(obs, cov, mesh=mesh, sites=sites,
                       config=SelectionConfig(n_folds=5, grid_size=3))
        assert len(calls) == 1


class TestSelectAll:
    def test_runs_per_parameter(self):
        p = GevParams(mu=30.0, sigma=8.0, xi=0.1)
        rng = np.random.default_rng(31)
        years = np.arange(1970.0, 2012.0)
        records = []
        for _ in range(12):
            records.append((years, gev_sample(p, years, years.size, rng)))
        stacked = fit_all_sites(records, trend=False)
        cov = {"x1": rng.normal(size=12)}
        out = select_all(stacked, cov, config=SelectionConfig(n_folds=4))
        assert set(out) == {"psi", "tau", "phi"}
        for res in out.values():
            assert res.score_no_spatial is None  # no mesh given

    def test_workers_equal_the_serial_run(self, monkeypatch):
        # parameters on two workers against the serial loop, field included;
        # the mesh's eigenproblem is solved once, before the fork
        rng = np.random.default_rng(32)
        sites = rng.uniform(0.0, 10.0, size=(14, 2))
        years = np.arange(1970.0, 2012.0)
        p = GevParams(mu=30.0, sigma=8.0, xi=0.1)
        stacked = fit_all_sites([(years, gev_sample(p, years, years.size, rng))
                                 for _ in range(14)], trend=False)
        cov = {"x1": rng.normal(size=14), "x2": rng.normal(size=14)}
        config = SelectionConfig(n_folds=4, grid_size=3)
        calls = []
        eigenvalues = spde.field_eigenvalues
        monkeypatch.setattr(spde, "field_eigenvalues",
                            lambda *args: calls.append(1) or eigenvalues(*args))
        runs = []
        for cores in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
            runs.append(select_all(stacked, cov, mesh=build_mesh(sites), sites=sites,
                                   config=config))
            assert multiprocessing.active_children() == []
        assert len(calls) == 2  # one mesh per run
        parallel, serial = runs
        assert list(parallel) == list(serial) == ["psi", "tau", "phi"]
        for name, a in parallel.items():
            b = serial[name]
            assert (a.chosen, a.spatial, a.score, a.score_no_spatial) == \
                (b.chosen, b.spatial, b.score, b.score_no_spatial)
            assert all(np.array_equal(f, g) for f, g in zip(a.folds, b.folds))
            for ra, rb in zip(a.path, b.path, strict=True):
                assert (ra.added, ra.names, ra.score) == (rb.added, rb.names, rb.score)
                assert np.array_equal(ra.theta, rb.theta)
