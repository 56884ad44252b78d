"""Latent Gaussian model over the link-space GEV parameters.

The per-site fits supply a Gaussian pseudo-observation eta_hat with known
block precision Q_i per site.  The latent level puts, for each link parameter,
a linear predictor with optional spatial field and an iid nugget:

    eta_l = X_l beta_l + A u_l + eps_l,     eps_l ~ N(0, sigma_eps_l^2 I),

with beta ~ N(0, sigma_beta^2 I) and u_l an SPDE Matern field.  The
hyperparameters theta (one nugget sd per parameter, plus a marginal sd and
range per spatial field) get penalized-complexity priors and are sampled by
adaptive random-walk Metropolis on log theta.  Conditional on theta the model
is conjugate: the marginal likelihood of eta_hat is available in closed form,
and (eta, nu) can be drawn exactly from the joint Gaussian conditional.

One Gaussian system per theta serves both.  With the nugget marginalized
into the pseudo-observation noise, W_i = (Q_i^-1 + diag(sigma_eps^2))^-1,
nu has the collapsed posterior precision P = Q_nu + Z' W Z.  Its factor gives
the marginal likelihood and the draw nu ~ N(P^-1 Z' W eta_hat, P^-1); each
site's eta_i | nu is then a q x q Gaussian with precision
Q_i + diag(sigma_eps^-2), drawn for all sites at once.  P keeps one sparsity
pattern for every theta.  Its field nodes couple only to mesh neighbours and
to the nodes around the same sites, while the few beta columns couple to
almost everything, so P is stored in arrow form (_sparse.ArrowLayout): the
field nodes in reverse Cuthill-McKee order form a narrow band, and the beta
columns come last.  The layout and the linear maps from theta's coefficients
and the W blocks to P's stored values are built once per structure, so each
theta costs two sparse mat-vecs and one banded Cholesky factorization
(_sparse.ArrowFactor).

Building a structure needs numpy only.  The sparse design Z, the layout and
the factor import scipy when first used, so commands that read draws from a
fit directory and evaluate no likelihood never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._sparse import ArrowFactor, ArrowLayout, arrow_layout
from ._workers import run_indexed
from .errors import ConfigError, NumericalError
from .gev import LINK
from .site_fit import PARAM_NAMES, StackedFits
from .spde import (
    Mesh,
    nugget_prior_logdensity,
    pc_prior_logdensity,
    precision_coefficients,
    precision_logdet_fast,
    projector,
)

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "ParamModel",
    "Priors",
    "LatentStructure",
    "build_structure",
    "marginal_loglik",
    "log_prior_theta",
    "log_posterior",
    "McmcConfig",
    "ThetaSamples",
    "run_mcmc",
    "sample_latent",
    "SmoothResult",
    "smooth_step",
]

SIGMA_BETA = 10.0
TARGET_ACCEPT = 0.234  # the adaptive walk's acceptance rate during burn-in
RHAT_WARN = 1.05  # a split-Rhat above this sets the "warn" status


@dataclass
class ParamModel:
    """Latent-level description for one link parameter.

    The design's columns are the intercept, then one per covariate name, in
    order; design_row builds the same row at a location outside the data.
    """

    name: str
    design: np.ndarray  # (J, p_l), first column the intercept
    spatial: bool = False
    covariate_names: tuple = ()  # names for design columns after the intercept

    def design_row(self, values: dict) -> np.ndarray:
        """The design row at a new location: 1, then values[name] per covariate name.

        values maps covariate names to values transformed as the design's
        columns were.  Raises ConfigError naming the covariates that values
        lacks, or when the names do not label every covariate column.
        """
        if len(self.covariate_names) != self.design.shape[1] - 1:
            raise ConfigError(f"the design of {self.name!r} has {self.design.shape[1] - 1} "
                              f"covariate columns but {len(self.covariate_names)} names")
        missing = [nm for nm in self.covariate_names if nm not in values]
        if missing:
            raise ConfigError(f"no value given for covariates {missing}, which the "
                              f"design of {self.name!r} takes")
        return np.array([1.0, *(values[nm] for nm in self.covariate_names)], dtype=float)


@dataclass
class Priors:
    """Prior scales: 5% prior mass above s0 on each field sd, below rho0 on
    each field range (None: a tenth of the mesh diameter) and above eps0 on
    each nugget sd; coefficients N(0, sigma_beta^2)."""

    s0: float = 1.0
    rho0: float | None = None
    eps0: float = 1.0
    sigma_beta: float = SIGMA_BETA

    def validate(self) -> None:
        if min(self.s0, self.eps0, self.sigma_beta) <= 0 or (
                self.rho0 is not None and self.rho0 <= 0):
            raise ValueError("prior scales must be positive")

    def structure_fields(self, mesh: Mesh | None) -> dict:
        """LatentStructure's prior fields on mesh; rho0 None is 1 without one."""
        rho0 = self.rho0 if self.rho0 is not None else (
            0.1 * mesh.diameter if mesh is not None else 1.0)
        return {"s0": self.s0, "rho0": rho0, "eps0": self.eps0, "sigma_beta": self.sigma_beta}


@dataclass(frozen=True)
class _FixedPattern:
    """P's stored values as linear maps of a few inputs.

    The storage vector of P's arrow layout is zero except at the indices
    slots, which hold coef_map @ coef + w_map @ w for Q_nu's coefficients
    coef and the flattened W blocks w.
    """

    layout: ArrowLayout
    slots: np.ndarray
    coef_map: sparse.csr_matrix
    w_map: sparse.csr_matrix

    def factor(self, coef: np.ndarray, w: np.ndarray) -> ArrowFactor:
        values = np.zeros(self.layout.size)
        values[self.slots] = self.coef_map @ coef + self.w_map @ w
        return ArrowFactor(self.layout, values)


@dataclass
class LatentStructure:
    """Preassembled matrices shared by every likelihood evaluation."""

    eta_hat: np.ndarray  # (q*J,) parameter-major
    prec_blocks: np.ndarray  # (J, q, q) per-site precision
    params: list[ParamModel]
    mesh: Mesh | None
    A: np.ndarray | None  # (J, n_nodes), from spde.projector
    s0: float
    rho0: float
    eps0: float
    sigma_beta: float = SIGMA_BETA
    # derived fields
    nu_slices: dict = field(init=False, repr=False)
    theta_names: list = field(init=False)
    _cov_blocks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        J = self.n_sites
        q = self.n_params
        if self.eta_hat.shape != (q * J,):
            raise ConfigError("eta_hat length does not match parameter count times sites")
        offset = 0
        self.nu_slices = {}
        for pm in self.params:
            if pm.design.shape[0] != J:
                raise ConfigError(f"design for {pm.name} has wrong number of rows")
            p_l = pm.design.shape[1]
            self.nu_slices[pm.name] = {"beta": slice(offset, offset + p_l)}
            offset += p_l
            if pm.spatial:
                if self.A is None:
                    raise ConfigError(f"spatial field on {pm.name} requires a mesh")
                n = self.A.shape[1]
                self.nu_slices[pm.name]["u"] = slice(offset, offset + n)
                offset += n
        self.theta_names = []
        for pm in self.params:
            self.theta_names.append(f"eps_{pm.name}")
            if pm.spatial:
                self.theta_names.append(f"s_{pm.name}")
                self.theta_names.append(f"rho_{pm.name}")
        self._cov_blocks = np.linalg.inv(self.prec_blocks)
        sign, _ = np.linalg.slogdet(self.prec_blocks)
        if np.any(sign <= 0):
            raise NumericalError("a site precision block is not positive definite")

    @cached_property
    def Z(self) -> sparse.csc_matrix:
        """Sparse (q*J, n_nu) map from nu to the parameter-major linear predictors.

        Block diagonal over parameters; parameter l's block is [X_l, A] with a
        field and X_l without.
        """
        from scipy import sparse

        blocks = []
        for pm in self.params:
            parts = [pm.design, self.A] if pm.spatial else [pm.design]
            blocks.append(sparse.csr_matrix(np.hstack(parts)))
        return sparse.block_diag(blocks, format="csc")

    @cached_property
    def Zt(self) -> sparse.csr_matrix:
        """Z' in CSR, built once per structure, not for every theta."""
        return self.Z.T

    def _q_nu_entries(self) -> tuple:
        """Q_nu as (rows, cols, coefficient index, value) entries.

        Q_nu's data is linear in the coefficients of q_nu_coefficients: the
        beta diagonals take coefficient 0, and field f takes 1 + 3f, 2 + 3f
        and 3 + 3f as weights of its mesh's C, G and G C^-1 G
        (Mesh.precision_terms), one entry per stored value of each term, so
        a position that several terms share repeats.
        """
        rows, cols, coef, vals = [], [], [], []
        n_fields = 0
        for pm in self.params:
            beta = self.nu_slices[pm.name]["beta"]
            idx = np.arange(beta.start, beta.stop)
            rows.append(idx)
            cols.append(idx)
            coef.append(np.zeros(idx.size, dtype=int))
            vals.append(np.ones(idx.size))
            if pm.spatial:
                start = self.nu_slices[pm.name]["u"].start
                for t, term in enumerate(self.mesh.precision_terms):
                    term = term.tocoo()
                    rows.append(term.row + start)
                    cols.append(term.col + start)
                    coef.append(np.full(term.nnz, 1 + 3 * n_fields + t))
                    vals.append(term.data)
                n_fields += 1
        return tuple(np.concatenate(x) for x in (rows, cols, coef, vals)) + (1 + 3 * n_fields,)

    @cached_property
    def _p_pattern(self) -> _FixedPattern:
        """P = Q_nu + Z' W Z on one fixed pattern, in arrow storage.

        (Z' W Z)[r, s] sums Z[a J + i, r] W_i[a, b] Z[b J + i, s] over sites i
        and parameters a, b, so every pair of nonzeros of Z in the rows of
        one site adds value Z[.., r] Z[.., s] times W.ravel()[(i q + a) q + b].
        The field nodes of all fields form the band, in reverse Cuthill-McKee
        order, and the beta columns the dense block (_sparse.arrow_layout);
        the maps give each of the lower triangle's storage slots its value.
        Entries whose values cancel stay in the storage as explicit zeros.
        """
        from scipy import sparse

        J, q = self.n_sites, self.n_params
        rows_q, cols_q, coef, vals_q, n_coef = self._q_nu_entries()
        Zr = self.Z.tocsr()
        z_row = np.repeat(np.arange(q * J), np.diff(Zr.indptr))
        site, param = z_row % J, z_row // J
        by_site = np.argsort(site, kind="stable")
        site, param = site[by_site], param[by_site]
        z_col, z_val = Zr.indices[by_site], Zr.data[by_site]
        per_site = np.bincount(site, minlength=J)
        reps = per_site[site]
        first = np.repeat(np.arange(site.size), reps)
        within = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        second = np.repeat(np.cumsum(per_site)[site] - reps, reps) + within
        rows_w, cols_w = z_col[first], z_col[second]
        w_index = (site[first] * q + param[first]) * q + param[second]
        vals_w = z_val[first] * z_val[second]

        dense = np.ones(self.n_nu, dtype=bool)
        for part in self.nu_slices.values():
            if "u" in part:
                dense[part["u"]] = False
        layout, slot = arrow_layout(np.concatenate([rows_q, rows_w]),
                                    np.concatenate([cols_q, cols_w]), dense)
        kept_q, kept_w = slot[:rows_q.size] >= 0, slot[rows_q.size:] >= 0
        slots, row = np.unique(slot[slot >= 0], return_inverse=True)
        n_q = np.count_nonzero(kept_q)
        coef_map = sparse.csr_matrix((vals_q[kept_q], (row[:n_q], coef[kept_q])),
                                     shape=(slots.size, n_coef))
        w_map = sparse.csr_matrix((vals_w[kept_w], (row[n_q:], w_index[kept_w])),
                                  shape=(slots.size, J * q * q))
        return _FixedPattern(layout, slots, coef_map, w_map)

    @property
    def n_sites(self) -> int:
        return self.prec_blocks.shape[0]

    @property
    def n_params(self) -> int:
        return self.prec_blocks.shape[1]

    @property
    def n_theta(self) -> int:
        return len(self.theta_names)

    @property
    def n_nu(self) -> int:
        return max(sl.stop for part in self.nu_slices.values() for sl in part.values())

    def unpack_theta(self, theta: np.ndarray) -> dict:
        """Split the flat theta vector into per-parameter dicts."""
        out = {}
        k = 0
        for pm in self.params:
            d = {"eps": float(theta[k])}
            k += 1
            if pm.spatial:
                d["s"] = float(theta[k])
                d["rho"] = float(theta[k + 1])
                k += 2
            out[pm.name] = d
        return out

    def q_nu_coefficients(self, theta: np.ndarray) -> np.ndarray:
        """1 / sigma_beta^2, then precision_coefficients(rho, s) per field."""
        out = [1.0 / self.sigma_beta**2]
        by_param = self.unpack_theta(theta)
        for pm in self.params:
            if pm.spatial:
                h = by_param[pm.name]
                out.extend(precision_coefficients(h["rho"], h["s"]))
        return np.array(out)

    def q_nu(self, theta: np.ndarray) -> sparse.csc_matrix:
        """Prior precision of nu = (beta_l, u_l)_l at the given theta."""
        from scipy import sparse

        rows, cols, coef, vals, _ = self._q_nu_entries()
        return sparse.csc_matrix((vals * self.q_nu_coefficients(theta)[coef], (rows, cols)),
                                 shape=(self.n_nu, self.n_nu))

    def logdet_q_nu(self, theta: np.ndarray) -> float:
        out = 0.0
        by_param = self.unpack_theta(theta)
        for pm in self.params:
            out += -2.0 * pm.design.shape[1] * math.log(self.sigma_beta)
            if pm.spatial:
                h = by_param[pm.name]
                lam, logdet_c = self.mesh.field_spectrum
                out += precision_logdet_fast(lam, logdet_c, h["rho"], h["s"])
        return out

    def sigma_eps2_by_param(self, theta: np.ndarray) -> np.ndarray:
        by_param = self.unpack_theta(theta)
        return np.array([by_param[pm.name]["eps"] ** 2 for pm in self.params])


def build_structure(stacked: StackedFits, designs: dict[str, np.ndarray],
                    spatial: dict[str, bool], sites: np.ndarray | None = None,
                    mesh: Mesh | None = None, priors: Priors | None = None,
                    covariate_names: dict | None = None) -> LatentStructure:
    """Assemble the latent structure from stacked site fits.

    designs maps parameter names (psi, tau, phi, gamma) to (J, p) matrices; a
    missing entry means intercept only.  spatial marks which parameters get a
    field; a field needs both the site coordinates and the mesh it lives on
    (spde.build_mesh), or ConfigError is raised.  priors defaults to Priors().
    covariate_names optionally labels the non-intercept design columns.
    """
    q = stacked.n_params
    labels = PARAM_NAMES[:q]
    J = stacked.n_sites
    A = None
    if any(spatial.get(name, False) for name in labels):
        if sites is None or mesh is None:
            raise ConfigError("spatial fields need the sites and a mesh")
        A = projector(mesh, np.asarray(sites, dtype=float))
    params = []
    for name in labels:
        X = designs.get(name)
        if X is None:
            X = np.ones((J, 1))
        X = np.asarray(X, dtype=float)
        names_l = tuple((covariate_names or {}).get(name, ()))
        if names_l and len(names_l) != X.shape[1] - 1:
            raise ConfigError(f"covariate names for {name!r} do not match the design")
        params.append(ParamModel(name=name, design=X, spatial=bool(spatial.get(name, False)),
                                 covariate_names=names_l))
    return LatentStructure(
        eta_hat=stacked.eta.copy(), prec_blocks=stacked.prec_blocks, params=params,
        mesh=mesh, A=A, **(priors or Priors()).structure_fields(mesh),
    )


# ----------------------------------------------------------------------------
# Marginal likelihood of eta_hat given theta
# ----------------------------------------------------------------------------

def _w_blocks(structure: LatentStructure, theta: np.ndarray, drop=None):
    """Per-site W blocks (J, q, q) and log det W.

    W_i = (Q_i^-1 + diag(sigma_eps^2))^-1 marginalizes the nugget into
    the pseudo-observation noise.  The sites in drop get W_i = 0 and add
    nothing to log det W.
    """
    sig2 = structure.sigma_eps2_by_param(theta)
    D = structure._cov_blocks + np.diag(sig2)[None, :, :]
    W = np.linalg.inv(D)
    sign, logdet_d = np.linalg.slogdet(D)
    if np.any(sign <= 0):
        raise NumericalError("noise covariance block lost positive definiteness")
    if drop is not None:
        W[drop] = 0.0
        logdet_d[drop] = 0.0
    return W, -float(logdet_d.sum())


def _collapsed_system(structure: LatentStructure, theta: np.ndarray, drop=None):
    """Factor of P = Q_nu + Z' W Z and the shift Z' W eta_hat at theta.

    P's values are written into its arrow storage by two sparse mat-vecs and
    factored there (_sparse.ArrowFactor).  Also returns eta_hat' W eta_hat
    and log det W.  The sites in drop (the held-out sites of a
    cross-validation fold) get zero W blocks, so all four describe the
    system of the other sites.  Raises NumericalError when P is not
    positive definite.
    """
    W, logdet_w = _w_blocks(structure, theta, drop)
    fac = structure._p_pattern.factor(structure.q_nu_coefficients(theta), W.ravel())
    q, J = structure.n_params, structure.n_sites
    w_eta = np.einsum("jab,bj->aj", W, structure.eta_hat.reshape(q, J)).ravel()
    return (fac, structure.Zt @ w_eta, float(structure.eta_hat @ w_eta), logdet_w)


def marginal_loglik(structure: LatentStructure, theta: np.ndarray) -> float:
    """Log density of eta_hat at theta, nu integrated out analytically."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0) or not np.all(np.isfinite(theta)):
        return -np.inf
    n_obs = structure.eta_hat.shape[0]
    try:
        fac, rhs, eta_w_eta, logdet_w = _collapsed_system(structure, theta)
    except NumericalError:
        return -np.inf
    quad = eta_w_eta - fac.inv_quad(rhs)
    logdet_q_nu = structure.logdet_q_nu(theta)
    return float(
        -0.5 * n_obs * math.log(2.0 * math.pi)
        + 0.5 * (logdet_w + logdet_q_nu - fac.logdet)
        - 0.5 * quad
    )


def log_prior_theta(structure: LatentStructure, theta: np.ndarray) -> float:
    """PC priors: exponential on each nugget sd, joint (s, rho) prior per field."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0):
        return -np.inf
    by_param = structure.unpack_theta(theta)
    out = 0.0
    for pm in structure.params:
        h = by_param[pm.name]
        out += float(nugget_prior_logdensity(h["eps"], structure.eps0))
        if pm.spatial:
            out += float(pc_prior_logdensity(h["s"], h["rho"], structure.s0, structure.rho0))
    return out


def log_posterior(structure: LatentStructure, x: np.ndarray) -> float:
    """Unnormalized log posterior of x = log theta, for the MCMC chains and
    selection's grid: marginal likelihood and prior at theta = exp(x), plus
    the log transform's Jacobian; -inf where either term is not finite."""
    theta = np.exp(x)
    lp = log_prior_theta(structure, theta)
    ll = marginal_loglik(structure, theta) if np.isfinite(lp) else -np.inf
    return ll + lp + float(x.sum()) if np.isfinite(ll) else -np.inf


# ----------------------------------------------------------------------------
# Adaptive random-walk Metropolis on log theta
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class McmcConfig:
    n_chains: int = 4
    n_iterations: int = 12_500
    n_kept: int = 1_000  # per chain, taken after burn-in with even thinning
    seed: int = 0

    @property
    def n_burn(self) -> int:
        return self.n_iterations // 2

    def validate(self) -> None:
        if self.n_chains < 1 or self.n_iterations < 20:
            raise ConfigError("MCMC needs at least one chain and 20 iterations")
        if self.n_kept < 4:  # split-Rhat needs two draws in each half of a chain
            raise ConfigError("n_kept must be at least 4")
        if self.n_kept > self.n_iterations - self.n_burn:
            raise ConfigError("n_kept exceeds post-burn-in draws")
        if self.seed < 0:
            raise ConfigError("seed must not be negative")


@dataclass
class ThetaSamples:
    """Retained hyperparameter draws with convergence diagnostics."""

    draws: np.ndarray  # (n_chains * n_kept, d), natural scale, named by theta_names
    rhat: np.ndarray
    ess: np.ndarray
    accept_rate: np.ndarray  # per chain
    status: str  # "ok" or "warn"
    warnings: list


def _split_rhat(chains: np.ndarray) -> np.ndarray:
    """Split-chain potential scale reduction, per coordinate."""
    m, n, d = chains.shape
    half = n // 2
    halves = np.concatenate([chains[:, :half, :], chains[:, half:2 * half, :]], axis=0)
    means = halves.mean(axis=1)  # (2m, d)
    vars_ = halves.var(axis=1, ddof=1)
    W = vars_.mean(axis=0)
    B = half * means.var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt((W * (half - 1) / half + B / half) / W)
    return np.where(W > 0, rhat, 1.0)


def _ess(chains: np.ndarray) -> np.ndarray:
    """Effective sample size per coordinate (Geyer initial positive sequence)."""
    m, n, d = chains.shape
    out = np.empty(d)
    for j in range(d):
        acs = []
        for c in range(m):
            x = chains[c, :, j] - chains[c, :, j].mean()
            v = float(x @ x) / n
            if v == 0.0:
                continue
            ac = np.correlate(x, x, mode="full")[n - 1:] / (v * n)
            acs.append(ac)
        if not acs:
            out[j] = float(m * n)
            continue
        ac = np.mean(acs, axis=0)
        # sum consecutive pairs until a pair goes nonpositive
        ssum = 0.0
        for k in range(1, n // 2):
            pair = ac[2 * k - 1] + ac[2 * k] if 2 * k < n else ac[2 * k - 1]
            if pair <= 0.0:
                break
            ssum += pair
        out[j] = m * n / (1.0 + 2.0 * ssum)
    return out


def run_mcmc(structure: LatentStructure, config: McmcConfig | None = None) -> ThetaSamples:
    """Sample theta from its marginal posterior by adaptive random walk.

    The walk lives on log theta (log_posterior, Jacobian included); the
    proposal covariance adapts during burn-in (empirical covariance scaled
    toward the target acceptance rate) and is frozen afterwards so the kept
    draws come from a fixed Markov kernel.  Fixed seed gives bit-identical
    output.

    Each chain keeps its own RNG, spawned from the seed, and the chains run
    in forked worker processes, one per available core
    (_workers.run_indexed); R-hat, ESS and the stacking stay here.  The
    output equals the serial run bit for bit, which taskset -c 0 forces.
    """
    config = config or McmcConfig()
    config.validate()
    d = structure.n_theta

    # deterministic starting point: nugget at a tenth of its prior scale,
    # field sd at half its prior scale, range at three times rho0
    x0 = []
    for pm in structure.params:
        x0.append(math.log(0.1 * structure.eps0))
        if pm.spatial:
            x0.append(math.log(0.5 * structure.s0))
            x0.append(math.log(3.0 * structure.rho0))
    x0 = np.asarray(x0)

    seeds = np.random.SeedSequence(config.seed).spawn(config.n_chains)
    n_iter, n_burn = config.n_iterations, config.n_burn
    n_post = n_iter - n_burn
    thin = max(1, n_post // config.n_kept)
    first_kept = n_burn + n_post - thin * config.n_kept

    def chain(c: int) -> tuple:
        """One chain's kept draws on log theta, (n_kept, d), and its acceptance rate."""
        rng = np.random.default_rng(seeds[c])
        x = x0 + 0.1 * rng.standard_normal(d)
        fx = log_posterior(structure, x)
        tries = 0
        while not np.isfinite(fx) and tries < 50:
            x = x0 + 0.1 * rng.standard_normal(d)
            fx = log_posterior(structure, x)
            tries += 1
        if not np.isfinite(fx):
            raise NumericalError("could not find a valid starting point for MCMC")
        log_scale = math.log(2.38 / math.sqrt(d))
        mean = x.copy()
        cov = np.eye(d) * 0.01
        chol = np.linalg.cholesky(cov)
        kept = np.empty((config.n_kept, d))
        n_acc = 0
        k_keep = 0
        for t in range(n_iter):
            prop = x + math.exp(log_scale) * (chol @ rng.standard_normal(d))
            fp = log_posterior(structure, prop)
            log_alpha = fp - fx
            accept = math.log(rng.uniform()) < log_alpha if np.isfinite(fp) else False
            if accept:
                x, fx = prop, fp
                n_acc += 1
            if t < n_burn:
                # Robbins-Monro scale plus running covariance (Haario)
                alpha = math.exp(min(0.0, log_alpha)) if np.isfinite(log_alpha) else 0.0
                gamma = (t + 1) ** -0.6
                log_scale += gamma * (alpha - TARGET_ACCEPT)
                dx = x - mean
                mean += gamma * dx
                cov = (1.0 - gamma) * cov + gamma * np.outer(dx, dx)
                if (t + 1) % 25 == 0:
                    try:
                        chol = np.linalg.cholesky(cov + 1e-9 * np.eye(d))
                    except np.linalg.LinAlgError:
                        pass
            elif t >= first_kept and (t - first_kept) % thin == thin - 1:
                kept[k_keep] = x
                k_keep += 1
        if k_keep != config.n_kept:
            raise NumericalError("thinning bookkeeping is inconsistent")
        return kept, n_acc / n_iter

    # fill the caches that every likelihood call reads before the workers
    # fork, so they share them and sample_latent finds them here; filled
    # directly, since a log_posterior call would count as a likelihood
    # evaluation.  The factor's LAPACK module is such a cache too.
    import scipy.linalg.lapack  # noqa: F401

    _ = structure._p_pattern
    if any(pm.spatial for pm in structure.params):
        _ = structure.mesh.field_spectrum
    chains = run_indexed(chain, config.n_chains)
    kept = np.stack([k for k, _ in chains])
    acc_rates = np.array([rate for _, rate in chains])

    rhat = _split_rhat(kept)
    ess = _ess(kept)
    warnings = []
    status = "ok"
    if np.any(rhat > RHAT_WARN):
        status = "warn"
        bad = [structure.theta_names[j] for j in np.where(rhat > RHAT_WARN)[0]]
        warnings.append(
            f"split-Rhat above {RHAT_WARN} for {', '.join(bad)}; "
            "chains may not have mixed"
        )
    draws = np.exp(kept.reshape(-1, d))
    return ThetaSamples(
        draws=draws,
        rhat=rhat,
        ess=ess,
        accept_rate=acc_rates,
        status=status,
        warnings=warnings,
    )


# ----------------------------------------------------------------------------
# Conditional draws of the latent field
# ----------------------------------------------------------------------------

def sample_latent(structure: LatentStructure, theta_draws: np.ndarray,
                  rng: np.random.Generator):
    """One exact joint draw of (eta, nu) per theta draw.

    nu comes from the collapsed factor, nu ~ N(P^-1 Z' W eta_hat, P^-1); then
    eta_i | nu ~ N(B_i^-1 (Q_i eta_hat_i + S^-1 (Z nu)_i), B_i^-1) for every
    site at once, with Q_i = prec_blocks[i], S = diag(sigma_eps^2) and
    B_i = Q_i + S^-1.
    Each row takes its own n_nu + q*J normals in row order (nu's first).
    Consecutive equal theta rows (an MCMC chain that rejected every proposal
    between two kept draws) share one assembly, factorization and mean, so
    the output equals a one-factorization-per-row loop bit for bit.

    Returns (eta_draws, nu_draws) with shapes (n, q*J) and (n, n_nu).
    """
    theta_draws = np.atleast_2d(np.asarray(theta_draws, dtype=float))
    n = theta_draws.shape[0]
    J, q, n_nu = structure.n_sites, structure.n_params, structure.n_nu
    prec = structure.prec_blocks
    prec_eta_hat = np.einsum("jab,bj->ja", prec, structure.eta_hat.reshape(q, J))
    eta_out = np.empty((n, q * J))
    nu_out = np.empty((n, n_nu))
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = np.any(theta_draws[1:] != theta_draws[:-1], axis=1)
    starts = np.flatnonzero(new_run)
    for start, stop in zip(starts, np.append(starts[1:], n)):
        theta = theta_draws[start]
        fac, rhs, _, _ = _collapsed_system(structure, theta)
        z = rng.standard_normal((stop - start, n_nu + q * J))
        nu = fac.solve(rhs) + fac.transform(z[:, :n_nu])
        # eta_i | nu = R_i' (R_i shift_i + z_i) with R_i = chol(B_i)^-1, so its
        # mean is B_i^-1 shift_i and its covariance R_i' R_i = B_i^-1; sites
        # on axis 1, parameters on axis 2, and explicit sums over the
        # parameter index keep each row's bits independent of the run length
        sig_inv = 1.0 / structure.sigma_eps2_by_param(theta)
        R = np.linalg.inv(np.linalg.cholesky(prec + np.diag(sig_inv)))
        lin_pred = (structure.Z @ nu.T).T.reshape(-1, q, J).transpose(0, 2, 1)
        shift = prec_eta_hat + sig_inv * lin_pred
        w = z[:, n_nu:].reshape(-1, J, q) + sum(R[:, :, b] * shift[:, :, b, None]
                                                for b in range(q))
        eta = sum(R[:, b, :] * w[:, :, b, None] for b in range(q))
        eta_out[start:stop] = eta.transpose(0, 2, 1).reshape(-1, q * J)
        nu_out[start:stop] = nu
    return eta_out, nu_out


@dataclass
class SmoothResult:
    """The fitted posterior, all that the predict module reads.

    Row k of theta_draws, eta_draws and nu_draws is one joint draw of
    (theta, eta, nu); the trend parameter gamma is anchored at the year t0,
    as in the max step.  The sampler's diagnostics stay in ThetaSamples.
    """

    structure: LatentStructure = field(repr=False)
    theta_draws: np.ndarray = field(repr=False)  # (n, d), natural scale
    eta_draws: np.ndarray = field(repr=False)  # (n, q*J)
    nu_draws: np.ndarray = field(repr=False)  # (n, n_nu)
    t0: float

    @property
    def n_draws(self) -> int:
        return self.eta_draws.shape[0]

    def eta_by_param(self, name: str) -> np.ndarray:
        """Draws of one link parameter across sites, (n, J)."""
        q_names = [pm.name for pm in self.structure.params]
        a = q_names.index(name)
        J = self.structure.n_sites
        return self.eta_draws[:, a * J:(a + 1) * J]

    def nu_block(self, name: str, part: str) -> np.ndarray:
        """Draws of a beta or u block, (n, size)."""
        sl = self.structure.nu_slices[name][part]
        return self.nu_draws[:, sl]


def smooth_step(structure: LatentStructure, config: McmcConfig | None = None,
                latent_seed: int = 1,
                t0: float = LINK.t0) -> tuple[ThetaSamples, SmoothResult]:
    """Run the hyperparameter MCMC and draw the latent field per kept theta.

    Returns the sampler's report and the posterior, its trend anchored at t0.
    """
    theta = run_mcmc(structure, config)
    rng = np.random.default_rng(latent_seed)
    eta_draws, nu_draws = sample_latent(structure, theta.draws, rng)
    return theta, SmoothResult(structure=structure, theta_draws=theta.draws,
                               eta_draws=eta_draws, nu_draws=nu_draws, t0=t0)
