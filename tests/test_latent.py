"""Tests for the latent Gaussian level: marginal likelihood, sampling, MCMC.

The marginal likelihood is checked against a dense multivariate-normal
evaluation at small J, with and without fields, covariates and trend.  The
latent draws are checked against the moments of the joint (eta, nu)
conditional built densely in the test.  The Metropolis sampler is checked
against a grid-integrated posterior in a one-hyperparameter model, its
chains in worker processes against the serial run, and its ESS and split
R-hat against AR(1) and shifted-chain cases.
"""

import math
import multiprocessing
import os
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse, stats

from spatgev.errors import ConfigError, NumericalError
from spatgev.gev import GevParams, gev_sample
from spatgev.latent import (
    LatentStructure,
    McmcConfig,
    ParamModel,
    Priors,
    _collapsed_system,
    _ess,
    _split_rhat,
    build_structure,
    log_prior_theta,
    marginal_loglik,
    run_mcmc,
    sample_latent,
    smooth_step,
)
from spatgev.site_fit import fit_all_sites
from spatgev.spde import fem_matrices, precision_matrix


def _stacked(J, seed, trend=False, n_years=50):
    rng = np.random.default_rng(seed)
    sites = rng.uniform(0.0, 10.0, size=(J, 2))
    records = []
    for _ in range(J):
        p = GevParams(mu=30.0 * math.exp(0.2 * rng.standard_normal()), sigma=8.0,
                      xi=0.1, delta=0.001 if trend else 0.0)
        years = np.arange(2005.0 - n_years, 2005.0)
        records.append((years, gev_sample(p, years, n_years, rng)))
    return fit_all_sites(records, trend=trend), sites, rng


def _dense_marginal_logpdf(st, theta):
    """Marginal density of eta_hat by brute force: N(0, D + Z Qnu^-1 Z')."""
    J, q = st.n_sites, st.n_params
    sig2 = st.sigma_eps2_by_param(theta)
    D = np.zeros((q * J, q * J))
    cov_blocks = np.linalg.inv(st.prec_blocks)
    for i in range(J):
        for a in range(q):
            for b in range(q):
                D[a * J + i, b * J + i] = cov_blocks[i, a, b] + (sig2[a] if a == b else 0.0)
    Qnu = st.q_nu(theta).toarray()
    Z = st.Z.toarray()
    cov = D + Z @ np.linalg.inv(Qnu) @ Z.T
    return float(stats.multivariate_normal(mean=np.zeros(q * J), cov=cov).logpdf(st.eta_hat))


class TestMarginalLoglik:
    def test_dense_oracle_covariate_field(self):
        stacked, sites, rng = _stacked(10, 51)
        X = np.column_stack([np.ones(10), rng.standard_normal(10)])
        st = build_structure(stacked, designs={"psi": X}, spatial={"psi": True}, sites=sites)
        for _ in range(5):
            theta = np.exp(rng.uniform(-2.5, 1.0, size=st.n_theta))
            assert abs(marginal_loglik(st, theta) - _dense_marginal_logpdf(st, theta)) < 1e-8

    def test_dense_oracle_trend_two_fields(self):
        # q=4 with fields on psi and tau
        stacked, sites, rng = _stacked(8, 52, trend=True)
        st = build_structure(
            stacked, designs={}, spatial={"psi": True, "tau": True}, sites=sites
        )
        assert st.n_params == 4 and st.n_theta == 8
        for _ in range(3):
            theta = np.exp(rng.uniform(-2.5, 1.0, size=8))
            assert abs(marginal_loglik(st, theta) - _dense_marginal_logpdf(st, theta)) < 1e-8

    def test_dense_oracle_small(self):
        # J=5 against scipy's dense multivariate normal
        stacked, sites, rng = _stacked(5, 53)
        X = np.column_stack([np.ones(5), np.linspace(-1, 1, 5)])
        st = build_structure(stacked, designs={"psi": X}, spatial={"psi": True}, sites=sites)
        for _ in range(3):
            theta = np.exp(rng.uniform(-2.0, 0.5, size=st.n_theta))
            ref = _dense_marginal_logpdf(st, theta)
            assert abs(marginal_loglik(st, theta) - ref) < 1e-8

    def test_dense_oracle_no_spatial(self):
        stacked, sites, rng = _stacked(6, 54)
        st = build_structure(stacked, designs={}, spatial={})
        theta = np.array([0.25, 0.15, 0.08])
        ref = _dense_marginal_logpdf(st, theta)
        assert abs(marginal_loglik(st, theta) - ref) < 1e-8

    def test_invalid_theta(self):
        stacked, sites, rng = _stacked(5, 55)
        st = build_structure(stacked, designs={}, spatial={})
        assert marginal_loglik(st, np.array([0.1, -0.2, 0.1])) == -np.inf
        assert marginal_loglik(st, np.array([0.1, np.nan, 0.1])) == -np.inf


class TestStructure:
    def test_theta_names_and_slices(self):
        stacked, sites, rng = _stacked(6, 56)
        X = np.column_stack([np.ones(6), rng.standard_normal(6)])
        st = build_structure(stacked, designs={"tau": X}, spatial={"psi": True}, sites=sites)
        assert st.theta_names == ["eps_psi", "s_psi", "rho_psi", "eps_tau", "eps_phi"]
        assert st.nu_slices["psi"]["beta"] == slice(0, 1)
        n = st.mesh.n_nodes
        assert st.nu_slices["psi"]["u"] == slice(1, 1 + n)
        assert st.nu_slices["tau"]["beta"] == slice(1 + n, 3 + n)
        assert st.Z.shape == (18, st.n_nu)

    def test_z_reproduces_linear_predictor(self):
        stacked, sites, rng = _stacked(6, 57)
        X = np.column_stack([np.ones(6), rng.standard_normal(6)])
        st = build_structure(stacked, designs={"psi": X}, spatial={"psi": True}, sites=sites)
        nu = rng.standard_normal(st.n_nu)
        eta = st.Z @ nu
        beta = nu[st.nu_slices["psi"]["beta"]]
        u = nu[st.nu_slices["psi"]["u"]]
        assert_allclose(eta[:6], X @ beta + st.A @ u, rtol=1e-12)
        # tau and phi blocks are intercept-only
        assert_allclose(eta[6:12], np.ones(6) * nu[st.nu_slices["tau"]["beta"]][0])

    def test_spatial_without_sites_fails(self):
        stacked, sites, rng = _stacked(5, 58)
        with pytest.raises(ConfigError):
            build_structure(stacked, designs={}, spatial={"psi": True})

    def test_prior_decomposes(self):
        stacked, sites, rng = _stacked(5, 59)
        st = build_structure(stacked, designs={}, spatial={"psi": True}, sites=sites,
                             priors=Priors(s0=0.8, rho0=2.0, eps0=0.6))
        from spatgev.spde import nugget_prior_logdensity, pc_prior_logdensity

        theta = np.array([0.2, 0.4, 3.0, 0.1, 0.15])
        expect = (
            nugget_prior_logdensity(0.2, 0.6)
            + pc_prior_logdensity(0.4, 3.0, 0.8, 2.0)
            + nugget_prior_logdensity(0.1, 0.6)
            + nugget_prior_logdensity(0.15, 0.6)
        )
        assert_allclose(log_prior_theta(st, theta), expect, rtol=1e-12)
        assert log_prior_theta(st, theta * -1.0) == -np.inf


def _fixed_pattern_cases():
    """One-field and psi+tau-field structures with a few theta each."""
    stacked, sites, rng = _stacked(10, 55)
    X = np.column_stack([np.ones(10), rng.standard_normal(10)])
    one = build_structure(stacked, designs={"psi": X}, spatial={"psi": True}, sites=sites)
    stacked, sites, _ = _stacked(8, 56, trend=True)
    two = build_structure(stacked, designs={"psi": X[:8]},
                          spatial={"psi": True, "tau": True}, sites=sites)
    return [(st, np.exp(rng.uniform(-2.5, 1.0, size=(3, st.n_theta)))) for st in (one, two)]


def _dense_system(st, theta, drop=None):
    """Dense P = Q_nu + Z' W Z, W and the W blocks, the sites in drop at zero weight."""
    J, q = st.n_sites, st.n_params
    W_blocks = np.linalg.inv(st._cov_blocks + np.diag(st.sigma_eps2_by_param(theta)))
    if drop is not None:
        W_blocks[drop] = 0.0
    W = np.zeros((q * J, q * J))
    for i in range(J):
        idx = np.arange(q) * J + i
        W[np.ix_(idx, idx)] = W_blocks[i]
    Z = st.Z.toarray()
    return st.q_nu(theta).toarray() + Z.T @ W @ Z, W, W_blocks


def _arrow_matrix(layout, values):
    """The symmetric matrix, in the original order, that arrow storage values holds."""
    nb, kd, p = layout.n_band, layout.bandwidth, layout.n_dense
    band = values[:(kd + 1) * nb].reshape((kd + 1, nb), order="F")
    arm = values[(kd + 1) * nb:(kd + 1 + p) * nb].reshape((nb, p), order="F")
    tip = values[(kd + 1 + p) * nb:].reshape(p, p)
    assert not np.any(np.triu(tip, 1))
    lower = np.zeros((nb + p, nb + p))
    for d in range(kd + 1):
        j = np.arange(nb - d)
        lower[j + d, j] = band[d, :nb - d]
        assert not np.any(band[d, nb - d:])  # slots past the matrix's corner stay empty
    lower[nb:, :nb] = arm.T
    lower[nb:, nb:] = tip
    back = np.argsort(layout.order)
    return (lower + np.tril(lower, -1).T)[np.ix_(back, back)]


class TestFixedPattern:
    def test_q_nu_matches_block_diag_of_field_precisions(self):
        for st, thetas in _fixed_pattern_cases():
            C, G = fem_matrices(st.mesh)
            for theta in thetas:
                by_param = st.unpack_theta(theta)
                parts = []
                for pm in st.params:
                    parts.append(sparse.identity(pm.design.shape[1]) / st.sigma_beta**2)
                    if pm.spatial:
                        h = by_param[pm.name]
                        parts.append(precision_matrix(C, G, rho=h["rho"], s=h["s"]))
                assert_allclose(st.q_nu(theta).toarray(), sparse.block_diag(parts).toarray(),
                                rtol=1e-12)

    def test_mapped_p_matches_dense(self):
        for st, thetas in _fixed_pattern_cases():
            Z = st.Z.toarray()
            pattern = st._p_pattern
            layout = pattern.layout
            # the field nodes of both fields form the band, the betas come last
            betas = np.concatenate([np.arange(st.n_nu)[part["beta"]]
                                    for part in st.nu_slices.values()])
            assert np.array_equal(np.sort(layout.order[layout.n_band:]), betas)
            for theta in thetas:
                P_ref, W, W_blocks = _dense_system(st, theta)
                values = np.zeros(layout.size)
                values[pattern.slots] = (pattern.coef_map @ st.q_nu_coefficients(theta)
                                         + pattern.w_map @ W_blocks.ravel())
                assert_allclose(_arrow_matrix(layout, values), P_ref, rtol=1e-12)
                fac, rhs, eta_w_eta, logdet_w = _collapsed_system(st, theta)
                assert_allclose(rhs, Z.T @ W @ st.eta_hat, rtol=1e-12)
                assert_allclose(eta_w_eta, st.eta_hat @ W @ st.eta_hat, rtol=1e-12)
                assert_allclose(logdet_w, np.linalg.slogdet(W)[1], rtol=1e-12)
                assert_allclose(fac.logdet, np.linalg.slogdet(P_ref)[1], rtol=1e-10)
                assert_allclose(fac.solve(rhs), np.linalg.solve(P_ref, rhs), rtol=1e-8)

    def test_pickled_structure_is_bit_equal(self):
        for st, thetas in _fixed_pattern_cases():
            before = marginal_loglik(st, thetas[0])
            copy = pickle.loads(pickle.dumps(st))
            for theta in thetas:
                assert marginal_loglik(copy, theta) == marginal_loglik(st, theta)
                assert np.array_equal(copy.q_nu(theta).toarray(), st.q_nu(theta).toarray())
            assert marginal_loglik(copy, thetas[0]) == before


def _kept_structure(st, keep):
    """st rebuilt from the sites in keep alone, on the same mesh."""
    q, J = st.n_params, st.n_sites
    return LatentStructure(
        eta_hat=st.eta_hat.reshape(q, J)[:, keep].ravel(), prec_blocks=st.prec_blocks[keep],
        params=[ParamModel(name=pm.name, design=pm.design[keep], spatial=pm.spatial)
                for pm in st.params],
        mesh=st.mesh, A=st.A[keep], s0=st.s0, rho0=st.rho0, eps0=st.eps0,
        sigma_beta=st.sigma_beta)


class TestDroppedSites:
    """_collapsed_system with held-out sites at zero weight, as the folds use it."""

    @staticmethod
    def _cases():
        stacked, sites, rng = _stacked(9, 57)
        X = np.column_stack([np.ones(9), rng.standard_normal(9)])
        three = build_structure(stacked, designs={"psi": X, "tau": X},
                                spatial={"psi": True, "tau": True}, sites=sites)
        four = _fixed_pattern_cases()[1][0]  # trend, psi and tau fields
        for st in (three, four):
            yield st, np.exp(rng.uniform(-2.5, 1.0, size=st.n_theta))

    def test_matches_kept_sites_and_dense_mvn(self):
        for st, theta in self._cases():
            for drop in (np.array([1, 4]), np.array([0, 2, 7])):
                keep = np.setdiff1d(np.arange(st.n_sites), drop)
                kept = _kept_structure(st, keep)
                fac, rhs, eta_w_eta, logdet_w = _collapsed_system(st, theta, drop=drop)
                fac_k, rhs_k, eta_w_eta_k, logdet_w_k = _collapsed_system(kept, theta)
                assert_allclose(fac.logdet, fac_k.logdet, rtol=1e-10)
                assert_allclose(fac.solve(rhs), fac_k.solve(rhs_k), rtol=1e-10)
                assert_allclose(eta_w_eta, eta_w_eta_k, rtol=1e-10)
                assert_allclose(logdet_w, logdet_w_k, rtol=1e-10)
                # together they give the kept sites' marginal density
                quad = eta_w_eta - float(rhs @ fac.solve(rhs))
                loglik = (-0.5 * st.n_params * keep.size * math.log(2.0 * math.pi)
                          + 0.5 * (logdet_w + st.logdet_q_nu(theta) - fac.logdet)
                          - 0.5 * quad)
                assert_allclose(loglik, _dense_marginal_logpdf(kept, theta), rtol=1e-10)

    def test_empty_drop_is_bit_equal_to_none(self):
        for st, theta in self._cases():
            fac, rhs, eta_w_eta, logdet_w = _collapsed_system(st, theta)
            for empty in (np.array([], dtype=int), []):
                fac_e, rhs_e, eta_w_eta_e, logdet_w_e = _collapsed_system(st, theta, drop=empty)
                assert np.array_equal(rhs_e, rhs)
                assert np.array_equal(fac_e.solve(rhs_e), fac.solve(rhs))
                assert (fac_e.logdet, eta_w_eta_e, logdet_w_e) == (fac.logdet, eta_w_eta,
                                                                  logdet_w)


class TestArrowSystem:
    """The arrow factor of P against dense references, with and without fields."""

    @staticmethod
    def _cases():
        stacked, _, rng = _stacked(6, 54)
        none = build_structure(stacked, designs={}, spatial={})
        cases = [(none, np.exp(rng.uniform(-2.5, 1.0, size=(2, none.n_theta))))]
        return cases + _fixed_pattern_cases()

    def test_logdet_solve_and_transform_match_dense(self):
        # with no field the band is empty; the folds' drop= system included
        for st, thetas in self._cases():
            for theta in thetas:
                for drop in (None, np.array([1, 4])):
                    fac, rhs, _, _ = _collapsed_system(st, theta, drop=drop)
                    P = _dense_system(st, theta, drop)[0]
                    assert_allclose(fac.logdet, np.linalg.slogdet(P)[1], rtol=1e-10)
                    b = np.random.default_rng(3).standard_normal(st.n_nu)
                    assert_allclose(fac.solve(b), np.linalg.solve(P, b), rtol=1e-8)
                    assert_allclose(fac.solve(rhs), np.linalg.solve(P, rhs), rtol=1e-8)
                    assert_allclose(fac.inv_quad(rhs), rhs @ np.linalg.solve(P, rhs),
                                    rtol=1e-10)
                    # the draws' covariance, exactly: T' T = sum_k x_k x_k' = P^-1
                    T = fac.transform(np.eye(st.n_nu))
                    ref = np.linalg.inv(P)
                    assert_allclose(T.T @ T, ref, rtol=1e-8, atol=1e-12 * np.abs(ref).max())

    def test_not_positive_definite_is_a_numerical_error(self, monkeypatch):
        for st, thetas in self._cases():
            theta = thetas[0]
            pattern = st._p_pattern
            coef = st.q_nu_coefficients(theta)
            w = np.zeros(st.n_sites * st.n_params**2)
            if pattern.layout.n_band:
                with pytest.raises(NumericalError, match="dpbtrf"):
                    pattern.factor(-coef, w)
            beta_negative = coef.copy()
            beta_negative[0] = -1.0
            with pytest.raises(NumericalError, match="Schur"):
                pattern.factor(beta_negative, w)
            with pytest.raises(NumericalError):
                pattern.factor(np.full_like(coef, np.nan), w)
            assert np.isfinite(marginal_loglik(st, theta))
            monkeypatch.setattr(st, "q_nu_coefficients", lambda theta: -1e6 * coef)
            assert marginal_loglik(st, theta) == -np.inf

    def test_pickled_layout_is_bit_equal(self):
        for st, thetas in self._cases():
            before = marginal_loglik(st, thetas[0])
            copy = pickle.loads(pickle.dumps(st))
            assert np.array_equal(copy._p_pattern.layout.order, st._p_pattern.layout.order)
            assert marginal_loglik(copy, thetas[0]) == before


class TestConditionalSampling:
    @staticmethod
    def _assert_moments_match_dense(st, theta, seed):
        # the joint (eta, nu) conditional built densely: precision
        # [[B + S^-1, -S^-1 Z], [-Z' S^-1, Qnu + Z' S^-1 Z]] and shift
        # (B eta_hat, 0), B the block-diagonal site precision, S the nuggets
        J, q = st.n_sites, st.n_params
        B = np.zeros((q * J, q * J))
        for i in range(J):
            idx = np.arange(q) * J + i
            B[np.ix_(idx, idx)] = st.prec_blocks[i]
        s_inv = np.repeat(1.0 / st.sigma_eps2_by_param(theta), J)
        Z = st.Z.toarray()
        Qn = st.q_nu(theta).toarray()
        dense = np.block([[B + np.diag(s_inv), -s_inv[:, None] * Z],
                          [-(s_inv[:, None] * Z).T, Qn + Z.T @ (s_inv[:, None] * Z)]])
        b = np.concatenate([B @ st.eta_hat, np.zeros(st.n_nu)])
        mean_ref = np.linalg.solve(dense, b)
        cov_ref = np.linalg.inv(dense)
        n_mc = 3000
        eta, nu = sample_latent(st, np.tile(theta, (n_mc, 1)), np.random.default_rng(seed))
        draws = np.hstack([eta, nu])
        se = np.sqrt(np.diag(cov_ref) / n_mc)
        assert np.all(np.abs(draws.mean(0) - mean_ref) < 4 * se + 1e-12)
        sd_ref = np.sqrt(np.diag(cov_ref))
        assert_allclose(draws.std(0), sd_ref, rtol=0.15)

    def test_moments_match_dense(self):
        stacked, sites, rng = _stacked(6, 60)
        st = build_structure(stacked, designs={}, spatial={})
        self._assert_moments_match_dense(st, np.array([0.2, 0.15, 0.1]), seed=4)

    def test_moments_match_dense_two_fields(self):
        # q=4 with fields on psi and tau: the per-site eta | nu step sees
        # full 4 x 4 blocks and nu a field part per parameter
        stacked, sites, rng = _stacked(8, 52, trend=True)
        st = build_structure(stacked, designs={}, spatial={"psi": True, "tau": True},
                             sites=sites)
        theta = np.exp(rng.uniform(-2.0, 0.5, size=st.n_theta))
        self._assert_moments_match_dense(st, theta, seed=4)

    def test_runs_of_equal_theta_match_row_by_row(self):
        # one factor per run of equal rows must give the same bits as one
        # call per row on a shared generator, runs of one included
        stacked, sites, rng = _stacked(6, 62)
        st = build_structure(stacked, designs={}, spatial={"psi": True}, sites=sites)
        base = np.exp(rng.uniform(-2.0, 0.5, size=(3, st.n_theta)))
        theta = base[[0, 0, 0, 1, 2, 2, 0]]
        eta, nu = sample_latent(st, theta, np.random.default_rng(5))
        row_rng = np.random.default_rng(5)
        for k in range(theta.shape[0]):
            eta_k, nu_k = sample_latent(st, theta[k], row_rng)
            assert np.array_equal(eta[k], eta_k[0])
            assert np.array_equal(nu[k], nu_k[0])
        eta_head, _ = sample_latent(st, theta[:2], np.random.default_rng(5))
        assert np.array_equal(eta_head, eta[:2])
        empty_eta, empty_nu = sample_latent(st, theta[:0], np.random.default_rng(5))
        assert empty_eta.shape == (0, eta.shape[1]) and empty_nu.shape == (0, nu.shape[1])


class TestMcmc:
    def test_grid_oracle_one_hyperparameter(self):
        # intercept-only model for psi alone: a single nugget sd, whose
        # posterior is computable by quadrature on a grid
        stacked, sites, rng = _stacked(25, 61)
        prec = np.stack([np.array([[f.precision[0, 0]]]) for f in stacked.site_fits])
        eta_psi = stacked.eta_by_param[0]
        st = LatentStructure(
            eta_hat=eta_psi.copy(), prec_blocks=prec,
            params=[ParamModel(name="psi", design=np.ones((25, 1)))],
            mesh=None, A=None, s0=1.0, rho0=1.0, eps0=1.0,
        )
        grid = np.linspace(math.log(1e-3), math.log(2.0), 600)
        logp = np.array([
            marginal_loglik(st, np.array([math.exp(x)]))
            + log_prior_theta(st, np.array([math.exp(x)])) + x
            for x in grid
        ])
        w = np.exp(logp - logp.max())
        w /= np.trapezoid(w, grid)
        mean_ref = np.trapezoid(w * grid, grid)
        sd_ref = math.sqrt(np.trapezoid(w * (grid - mean_ref) ** 2, grid))
        cfg = McmcConfig(n_chains=2, n_iterations=4000, n_kept=1000, seed=3)
        out = run_mcmc(st, cfg)
        mc = np.log(out.draws[:, 0])
        mcse = sd_ref / math.sqrt(max(out.ess[0], 1.0))
        assert abs(mc.mean() - mean_ref) < 4 * mcse + 0.02
        assert_allclose(mc.std(), sd_ref, rtol=0.2)

    def test_bit_reproducible(self):
        stacked, sites, rng = _stacked(8, 62)
        st = build_structure(stacked, designs={}, spatial={})
        cfg = McmcConfig(n_chains=2, n_iterations=400, n_kept=100, seed=11)
        a = run_mcmc(st, cfg)
        b = run_mcmc(st, cfg)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.rhat, b.rhat)

    def test_diagnostics_shapes_and_status(self):
        stacked, sites, rng = _stacked(8, 63)
        st = build_structure(stacked, designs={}, spatial={})
        cfg = McmcConfig(n_chains=2, n_iterations=2000, n_kept=500, seed=12)
        out = run_mcmc(st, cfg)
        assert out.draws.shape == (1000, 3)
        assert out.rhat.shape == (3,) and out.ess.shape == (3,)
        assert out.status in ("ok", "warn")
        assert np.all(out.accept_rate > 0.05) and np.all(out.accept_rate < 0.6)

    def test_burn_in_survives_huge_acceptance_ratio(self, monkeypatch):
        # the start point scores about -1e4 and every proposal 0, so the
        # first log acceptance ratio is about 1e4, far past exp's range
        import spatgev.latent as latent

        stacked, sites, rng = _stacked(8, 65)
        st = build_structure(stacked, designs={}, spatial={})
        calls = {"n": 0}

        def fake_loglik(structure, theta):
            calls["n"] += 1
            return -1e4 if calls["n"] == 1 else 0.0

        monkeypatch.setattr(latent, "marginal_loglik", fake_loglik)
        cfg = McmcConfig(n_chains=1, n_iterations=40, n_kept=10, seed=7)
        out = run_mcmc(st, cfg)
        assert out.draws.shape == (10, 3)
        assert np.all(np.isfinite(out.draws))
        assert out.accept_rate[0] > 0.0

    def test_workers_equal_the_serial_run(self, monkeypatch):
        # three chains on two workers against the serial loop, bit for bit
        stacked, sites, rng = _stacked(8, 66)
        st = build_structure(stacked, designs={}, spatial={"psi": True}, sites=sites)
        cfg = McmcConfig(n_chains=3, n_iterations=300, n_kept=50, seed=13)
        runs = []
        for cores in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
            runs.append(run_mcmc(st, cfg))
            assert multiprocessing.active_children() == []
        parallel, serial = runs
        for key in ("draws", "rhat", "ess", "accept_rate"):
            assert np.array_equal(getattr(parallel, key), getattr(serial, key)), key
        assert (parallel.status, parallel.warnings) == (serial.status, serial.warnings)

    def test_chain_start_failure_is_a_numerical_error(self, monkeypatch):
        import spatgev.latent as latent

        stacked, sites, rng = _stacked(8, 67)
        st = build_structure(stacked, designs={}, spatial={})
        monkeypatch.setattr(latent, "marginal_loglik", lambda structure, theta: -np.inf)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(NumericalError, match="starting point"):
            run_mcmc(st, McmcConfig(n_chains=2, n_iterations=40, n_kept=10))
        assert multiprocessing.active_children() == []

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            McmcConfig(n_chains=0).validate()
        with pytest.raises(ConfigError):
            McmcConfig(n_iterations=100, n_kept=100).validate()


def _ar1(rho, n, seed):
    """Stationary AR(1) path with unit innovations."""
    e = np.random.default_rng(seed).standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / math.sqrt(1.0 - rho**2)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + e[t]
    return x


class TestDiagnostics:
    @pytest.mark.parametrize("rho, seed", [(0.5, 1), (0.9, 2)])
    def test_ess_of_ar1_matches_closed_form(self, rho, seed):
        n = 20_000
        chain = _ar1(rho, n, seed)[None, :, None]
        assert_allclose(_ess(chain)[0], n * (1.0 - rho) / (1.0 + rho), rtol=0.15)

    def test_split_rhat_separates_mixed_from_shifted_chains(self):
        chains = np.random.default_rng(4).standard_normal((4, 1000, 2))
        assert np.all(_split_rhat(chains) < 1.01)
        chains[0] += 1.0  # one chain off by one sd
        assert np.all(_split_rhat(chains) > 1.05)


class TestSmoothStep:
    def test_end_to_end_shapes(self):
        stacked, sites, rng = _stacked(8, 64)
        X = np.column_stack([np.ones(8), rng.standard_normal(8)])
        st = build_structure(stacked, designs={"psi": X}, spatial={"psi": True}, sites=sites)
        cfg = McmcConfig(n_chains=2, n_iterations=300, n_kept=50, seed=5)
        theta, res = smooth_step(st, cfg, t0=1990.0)
        assert theta.draws.shape == (100, st.n_theta)
        assert res.theta_draws is theta.draws and res.t0 == 1990.0
        assert res.eta_draws.shape == (100, 24)
        assert res.nu_draws.shape == (100, st.n_nu)
        psi = res.eta_by_param("psi")
        assert psi.shape == (100, 8)
        beta = res.nu_block("psi", "beta")
        assert beta.shape == (100, 2)
