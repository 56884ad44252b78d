"""Log-score cross-validation with benchmark models and fit diagnostics.

Scores are negative base-2 logarithms of predictive densities (bits);
densities below 2^-50 are excluded from averages and tallied.  The latent
Gaussian variants are scored through kernel density estimates of posterior
predictive samples; the benchmark models (pooled constant, per-site ML,
response surface) are scored by their fitted GEV densities directly.

The train/test split is temporal (training years up to a cut, test years
after) with an additional set of fully held-out stations for out-of-site
scoring.  One training fit serves both scoring modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import MaximaDataset
from .errors import ConfigError, DataError, NumericalError
from .gev import LINK, GevParams, link_inverse, LinkedParams, logpdf, shape_inverse
from .latent import McmcConfig, Priors, SmoothResult, build_structure, smooth_step
from .predict import UngaugedSite, posterior_predictive
from .site_fit import (
    StackedFits,
    _newton,
    fit_all_sites,
    fit_site,
    site_loglik,
    site_loglik_derivatives,
)

__all__ = [
    "LOG_SCORE_FLOOR",
    "log_score",
    "kde_bandwidth",
    "kde_density",
    "se_of_mean_diff",
    "fit_const",
    "fit_mle",
    "RsmFit",
    "fit_rsm",
    "CvConfig",
    "CvPlan",
    "make_cv_plan",
    "ModelSpec",
    "LGM_VARIANTS",
    "ScoreTable",
    "CvResult",
    "run_cv",
    "anderson_darling",
    "ad_critical_value",
    "empirical_variogram",
]

LOG_SCORE_FLOOR = 2.0**-50


# ----------------------------------------------------------------------------
# Scores and densities
# ----------------------------------------------------------------------------


def log_score(p) -> np.ndarray | float:
    """Negative dual logarithm of a predictive density value, in bits."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0):
        raise DataError("predictive density values must be nonnegative")
    with np.errstate(divide="ignore"):
        out = -np.log2(p)
    return out if out.ndim else float(out)


def kde_bandwidth(samples: np.ndarray) -> float:
    """0.9 * min(sd, IQR/1.34) * n^(-1/5), the automatic normal-scale rule."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    sd = float(np.std(samples, ddof=1))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    robust = (q75 - q25) / 1.34
    spread = min(sd, robust) if robust > 0 else sd
    if not spread > 0:
        raise DataError("samples are degenerate; no bandwidth")
    return 0.9 * spread * n ** (-0.2)


def kde_density(samples: np.ndarray, y) -> np.ndarray | float:
    """Gaussian-kernel density of the samples evaluated at y.

    y may be a scalar or an array; every value of an array shares the one
    bandwidth of the samples, and each gets the bits it would get alone.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2 or np.unique(samples).size < 2:
        raise DataError("kernel density needs at least two distinct samples")
    h = kde_bandwidth(samples)
    y = np.asarray(y, dtype=float)
    z = (np.atleast_1d(y)[:, None] - samples[None, :]) / h
    dens = np.exp(-0.5 * z * z).mean(axis=1) / (h * math.sqrt(2.0 * math.pi))
    return dens if y.ndim else float(dens[0])


def se_of_mean_diff(diffs, n_eff_time: float, n_eff_space: float) -> float:
    """Standard error of a mean score difference under an effective sample size."""
    diffs = np.asarray(diffs, dtype=float)
    if diffs.size == 0:
        raise DataError("no score differences to summarize")
    if diffs.size == 1:
        return 0.0
    return float(np.std(diffs, ddof=1) / math.sqrt(n_eff_time * n_eff_space))


# ----------------------------------------------------------------------------
# Benchmark models
# ----------------------------------------------------------------------------


def fit_const(records: list) -> GevParams:
    """Single stationary GEV by generalized ML on all pooled maxima."""
    y = np.concatenate([np.asarray(r[1], dtype=float) for r in records])
    years = np.concatenate([np.asarray(r[0], dtype=float) for r in records])
    fit = fit_site(y, years, trend=False)
    lp = LinkedParams(psi=fit.eta_hat[0], tau=fit.eta_hat[1], phi=fit.eta_hat[2])
    return link_inverse(lp)


def fit_mle(stacked: StackedFits) -> list:
    """Per-site GevParams of a stationary max step: the independent
    generalized-ML benchmark."""
    return [link_inverse(LinkedParams(psi=f.eta_hat[0], tau=f.eta_hat[1], phi=f.eta_hat[2]))
            for f in stacked.site_fits]


def _poly_columns(coords_std: np.ndarray, order: int) -> np.ndarray:
    """Coordinate polynomial columns up to the given total order (no constant)."""
    x, y = coords_std[:, 0], coords_std[:, 1]
    cols = []
    for total in range(1, order + 1):
        for i in range(total + 1):
            cols.append(x ** (total - i) * y**i)
    return np.column_stack(cols) if cols else np.empty((coords_std.shape[0], 0))


@dataclass
class RsmFit:
    """Response-surface benchmark: link parameters linear in covariates and
    coordinate polynomials (orders 2, 2, 1 for the three link parameters)."""

    coef: dict
    coord_mean: np.ndarray
    coord_scale: np.ndarray
    covariate_names: tuple
    orders: tuple = (2, 2, 1)
    converged: bool = True

    def _designs(self, coords: np.ndarray, covariates: np.ndarray) -> list:
        cs = (np.asarray(coords, dtype=float) - self.coord_mean) / self.coord_scale
        base = [np.ones(cs.shape[0]), *np.asarray(covariates, dtype=float).T]
        return [np.column_stack(base + [_poly_columns(cs, o)]) for o in self.orders]

    def linked_at(self, coords: np.ndarray, covariates: np.ndarray) -> np.ndarray:
        """Rows of (psi, tau, phi) at the given locations."""
        designs = self._designs(coords, covariates)
        return np.column_stack([
            designs[0] @ self.coef["psi"],
            designs[1] @ self.coef["tau"],
            designs[2] @ self.coef["phi"],
        ])


def _rsm_objective(designs: list, records: list) -> tuple:
    """RSM's objective over the coefficients c: (f, derivs) for site_fit._newton.

    Site i's (psi, tau, phi) is M_i c, where the 3 x n map M_i holds row i
    of each design on its own block of c.  f(c) sums site_loglik(M_i c) over
    the sites, priors on and no trend; derivs chains the sites' own
    derivatives, g = sum M_i' g_i and H = sum M_i' H_i M_i.  Each site
    drops its non-finite (year, y) pairs, as fit_site does.
    """
    maps = np.zeros((designs[0].shape[0], 3, sum(X.shape[1] for X in designs)))
    lo = 0
    for a, X in enumerate(designs):
        maps[:, a, lo:lo + X.shape[1]] = X
        lo += X.shape[1]
    sites = []
    for years, y in records:
        years, y = np.asarray(years, dtype=float), np.asarray(y, dtype=float)
        keep = np.isfinite(y) & np.isfinite(years)
        sites.append((y[keep], years[keep]))

    def f(c: np.ndarray) -> float:
        return sum(site_loglik(M @ c, y, years) for M, (y, years) in zip(maps, sites))

    def derivs(c: np.ndarray) -> tuple:
        per_site = [site_loglik_derivatives(M @ c, y, years)
                    for M, (y, years) in zip(maps, sites)]
        g = np.stack([gi for gi, _ in per_site])
        H = np.stack([Hi for _, Hi in per_site])
        return (np.einsum("ian,ia->n", maps, g),
                np.tensordot(maps, H @ maps, axes=([0, 1], [0, 1])))

    return f, derivs


def fit_rsm(records: list, coords: np.ndarray, covariates: np.ndarray,
            covariate_names: tuple = (),
            orders: tuple = (2, 2, 1)) -> RsmFit:
    """Joint generalized ML over all sites, no random effects, no trend.

    The objective is the max step's own: the sum over sites of site_loglik,
    with the per-site transformed-shape prior, at each site's (psi, tau,
    phi) from the designs.  site_fit's damped Newton climbs it on the
    exact gradient and Hessian from the pooled fit_const start, and
    converged is its flag.
    """
    coords = np.asarray(coords, dtype=float)
    covariates = np.asarray(covariates, dtype=float)
    if covariates.ndim == 1:
        covariates = covariates[:, None]
    mean = coords.mean(axis=0)
    scale = coords.std(axis=0, ddof=0)
    scale[scale == 0] = 1.0
    shell = RsmFit(coef={}, coord_mean=mean, coord_scale=scale,
                   covariate_names=tuple(covariate_names), orders=orders)
    designs = shell._designs(coords, covariates)
    sizes = [X.shape[1] for X in designs]

    pooled = fit_const(records)
    x0 = np.zeros(sum(sizes))
    x0[0] = math.log(pooled.mu)
    x0[sizes[0]] = math.log(pooled.sigma / pooled.mu)

    coef, _, shell.converged = _newton(*_rsm_objective(designs, records), x0)
    c_psi, c_tau, c_phi = np.split(coef, np.cumsum(sizes)[:-1])
    shell.coef = {"psi": c_psi, "tau": c_tau, "phi": c_phi}
    return shell


# ----------------------------------------------------------------------------
# Cross-validation plan
# ----------------------------------------------------------------------------


@dataclass
class CvConfig:
    """The cv section of a run configuration."""

    split_year: float = 2000.0  # last training year
    complete_through: float = 2013.0  # last test year
    min_start_year: float = 1980.0  # eligible stations start before it
    n_heldout: int = 6  # stations held out for out-of-site scoring
    seed: int = 0  # held-out draw; the CLI defaults it to the run's seed
    n_eff_time: float | None = None  # None: the number of test years
    n_eff_space: float = 50.0
    variants: list[str] = field(default_factory=lambda: list(DEFAULT_VARIANTS))
    n_samples: int = 32_000  # predictive samples per stationary LGM site
    n_samples_trend: int = 3_200  # the same per site and year under a trend

    def validate(self) -> None:
        if self.n_heldout < 0:
            raise ValueError("n_heldout must not be negative")
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        if self.n_eff_time is not None and self.n_eff_time <= 0:
            raise ValueError("n_eff_time must be positive")
        if self.n_eff_space <= 0:
            raise ValueError("n_eff_space must be positive")


@dataclass
class CvPlan:
    train_sites: np.ndarray  # indices into the dataset
    heldout_sites: np.ndarray
    train_end_year: float
    test_years: np.ndarray
    n_eff_time: float
    n_eff_space: float

    def validate(self) -> None:
        if np.intersect1d(self.train_sites, self.heldout_sites).size:
            raise ConfigError("held-out sites overlap the training sites")
        if self.train_sites.size < 3:
            raise ConfigError("too few training sites")
        if self.test_years.size == 0:
            raise ConfigError("empty test period")


def _station_years(record) -> np.ndarray:
    return np.asarray(record[0], dtype=float)


def make_cv_plan(dataset: MaximaDataset, cv: CvConfig) -> CvPlan:
    """Temporal split plus held-out stations among the eligible ones.

    Training runs through cv.split_year and testing through
    cv.complete_through.  Eligible stations have data before
    cv.min_start_year and a complete test record; cv.n_heldout of them are
    held out, drawn with a generator seeded by cv.seed.
    """
    test_years = np.arange(cv.split_year + 1.0, cv.complete_through + 1.0)
    eligible = []
    for i, rec in enumerate(dataset.records):
        years = _station_years(rec)
        if years.size == 0 or years.min() >= cv.min_start_year:
            continue
        if not np.all(np.isin(test_years, years)):
            continue
        eligible.append(i)
    eligible = np.asarray(eligible, dtype=int)
    if eligible.size <= cv.n_heldout:
        raise ConfigError(
            f"only {eligible.size} stations pass the filter; cannot hold out "
            f"{cv.n_heldout}"
        )
    rng = np.random.default_rng(cv.seed)
    heldout = np.sort(rng.choice(eligible, size=cv.n_heldout, replace=False))
    train = np.setdiff1d(eligible, heldout)
    plan = CvPlan(
        train_sites=train,
        heldout_sites=heldout,
        train_end_year=float(cv.split_year),
        test_years=test_years,
        n_eff_time=float(test_years.size if cv.n_eff_time is None else cv.n_eff_time),
        n_eff_space=float(cv.n_eff_space),
    )
    plan.validate()
    return plan


# ----------------------------------------------------------------------------
# Model variants
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    name: str
    covariates: bool
    spatial: bool
    trend: bool


LGM_VARIANTS = {
    "LGM-IID": ModelSpec("LGM-IID", covariates=False, spatial=False, trend=False),
    "LGM-COV": ModelSpec("LGM-COV", covariates=True, spatial=False, trend=False),
    "LGM-FULL": ModelSpec("LGM-FULL", covariates=True, spatial=True, trend=False),
    "LGM-FULLT": ModelSpec("LGM-FULLT", covariates=True, spatial=True, trend=True),
}

BENCHMARKS = ("CONST", "MLE", "RSM")
DEFAULT_VARIANTS = ("CONST", "MLE", "RSM", "LGM-IID", "LGM-COV", "LGM-FULL")


# ----------------------------------------------------------------------------
# Score tables
# ----------------------------------------------------------------------------


@dataclass
class ScoreTable:
    models: list
    mean: dict
    n_scored: dict
    n_excluded: dict
    diff: np.ndarray  # diff[a, b] = mean(bits_a - bits_b) over common cells
    se: np.ndarray
    max_train_year: float


def _build_table(bits_by_model: dict, plan: CvPlan, max_train_year: float) -> ScoreTable:
    models = list(bits_by_model)
    mean, n_scored, n_excluded = {}, {}, {}
    for m in models:
        bits = bits_by_model[m]
        ok = np.isfinite(bits)
        n_scored[m] = int(ok.sum())
        n_excluded[m] = int((~ok).sum())
        mean[m] = float(bits[ok].mean()) if ok.any() else math.nan
    k = len(models)
    diff = np.zeros((k, k))
    se = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            both = np.isfinite(bits_by_model[models[a]]) & np.isfinite(bits_by_model[models[b]])
            if not both.any():
                diff[a, b] = se[a, b] = math.nan
                continue
            d = bits_by_model[models[a]][both] - bits_by_model[models[b]][both]
            diff[a, b] = float(d.mean())
            se[a, b] = se_of_mean_diff(d, plan.n_eff_time, plan.n_eff_space)
    return ScoreTable(models=models, mean=mean, n_scored=n_scored,
                      n_excluded=n_excluded, diff=diff, se=se,
                      max_train_year=max_train_year)


@dataclass
class CvResult:
    within: ScoreTable
    out_of_site: ScoreTable
    plan: CvPlan
    failures: dict = field(default_factory=dict)


# ----------------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------------


def _bits_from_density(p):
    """Log scores in bits; NaN (excluded) where the density is below the floor."""
    p = np.asarray(p, dtype=float)
    return np.where(p >= LOG_SCORE_FLOOR, log_score(p), math.nan)


def _test_observations(dataset: MaximaDataset, sites: np.ndarray,
                       test_years: np.ndarray) -> list:
    """(site, year, value) cells present in the data for the test period."""
    cells = []
    for i in sites:
        years, y = dataset.records[i]
        mask = np.isin(years, test_years)
        for yr, v in zip(np.asarray(years)[mask], np.asarray(y)[mask]):
            cells.append((int(i), float(yr), float(v)))
    return cells


def _gev_bits(cells: list, mu, sigma, xi) -> np.ndarray:
    """Log scores of stationary GEV densities, one kernel call for all cells."""
    values = np.array([v for _, _, v in cells], dtype=float)
    return _bits_from_density(np.exp(logpdf(values, mu, sigma, xi)))


def _fit_lgm(dataset: MaximaDataset, spec: ModelSpec, plan: CvPlan,
             covariate_names: list, mcmc: McmcConfig, mesh, stacked: StackedFits,
             t0: float, priors: Priors | None = None) -> SmoothResult:
    designs, names = {}, {}
    if spec.covariates and covariate_names:
        X = dataset.subset(plan.train_sites).design_matrix(covariate_names)
        designs = {"psi": X, "tau": X}
        names = {"psi": tuple(covariate_names), "tau": tuple(covariate_names)}
    structure = build_structure(
        stacked, designs=designs, spatial={"psi": spec.spatial, "tau": spec.spatial},
        sites=dataset.sites[plan.train_sites],
        mesh=mesh if spec.spatial else None, priors=priors, covariate_names=names,
    )
    return smooth_step(structure, mcmc, t0=t0)[1]


def _ungauged_for(dataset: MaximaDataset, spec: ModelSpec, site: int,
                  covariate_names: list) -> UngaugedSite:
    if spec.covariates and covariate_names:
        row = dataset.design_matrix(covariate_names)[site]
    else:
        row = np.ones(1)
    rows = {"psi": row, "tau": row, "phi": np.ones(1)}
    if spec.trend:
        rows["gamma"] = np.ones(1)
    return UngaugedSite(coords=dataset.sites[site], design_rows=rows)


def run_cv(dataset: MaximaDataset, plan: CvPlan, cv: CvConfig,
           covariate_names: list | None = None,
           mcmc: McmcConfig | None = None,
           seed: int = 0, t0: float = LINK.t0, mesh=None,
           priors: Priors | None = None, mesh_options=None) -> CvResult:
    """Fit every variant of cv.variants on the training window and score
    test cells.

    Within-site cells are test-year observations at training stations;
    out-of-site cells are test-year observations at held-out stations (the
    per-site ML benchmark is not applicable there).  Densities below the
    floor are excluded and tallied per model.  The training sites are fit
    once per trend setting: MLE and the stationary LGM variants share one
    stationary max step.  The LGM variants' structures take priors
    (default Priors()); their fields live on mesh, which is built from all
    the sites with mesh_options (spde.MeshOptions) when not given.
    """
    plan.validate()
    mcmc = mcmc or McmcConfig()
    variants = cv.variants
    unknown = [v for v in variants if v not in BENCHMARKS and v not in LGM_VARIANTS]
    if unknown:
        raise ConfigError(f"unknown model variants: {unknown}")
    covariate_names = covariate_names or list(dataset.covariate_names or [])

    train_ds = dataset.subset(plan.train_sites).filter_years(hi=plan.train_end_year)
    max_train_year = max(float(np.max(r[0])) for r in train_ds.records)
    if max_train_year > plan.train_end_year:
        raise NumericalError("training window leaked past the split year")

    if mesh is None and any(
            v in LGM_VARIANTS and LGM_VARIANTS[v].spatial for v in variants):
        from .spde import build_mesh

        mesh = build_mesh(dataset.sites, mesh_options)

    within_cells = _test_observations(dataset, plan.train_sites, plan.test_years)
    out_cells = _test_observations(dataset, plan.heldout_sites, plan.test_years)
    train_pos = {int(s): k for k, s in enumerate(plan.train_sites)}

    within_bits: dict = {}
    out_bits: dict = {}
    failures: dict = {}
    rng = np.random.default_rng(seed)
    site_fits_by_trend: dict = {}

    def site_fits(trend: bool) -> StackedFits:
        if trend not in site_fits_by_trend:
            site_fits_by_trend[trend] = fit_all_sites(
                train_ds.records, trend=trend,
                station_ids=train_ds.station_ids, t0=t0)
        return site_fits_by_trend[trend]

    for name in variants:
        try:
            if name == "CONST":
                p0 = fit_const(train_ds.records)
                for cells, bits in ((within_cells, within_bits), (out_cells, out_bits)):
                    bits[name] = _gev_bits(cells, p0.mu, p0.sigma, p0.xi)
            elif name == "MLE":
                fits = fit_mle(site_fits(False))
                mu, sigma, xi = np.array([[f.mu, f.sigma, f.xi] for f in fits]).T
                k = [train_pos[s] for s, _, _ in within_cells]
                within_bits[name] = _gev_bits(within_cells, mu[k], sigma[k], xi[k])
                # not applicable out of site
            elif name == "RSM":
                covs = (dataset.design_matrix(covariate_names)[:, 1:] if covariate_names
                        else np.zeros((dataset.n_sites, 0)))
                rsm = fit_rsm(train_ds.records, train_ds.sites, covs[plan.train_sites],
                              covariate_names=tuple(covariate_names))
                if not rsm.converged:
                    raise NumericalError("response-surface Newton did not converge")
                for cells, bits in ((within_cells, within_bits), (out_cells, out_bits)):
                    idx = [s for s, _, _ in cells]
                    psi, tau, phi = rsm.linked_at(dataset.sites[idx], covs[idx]).T
                    mu = np.exp(psi)
                    bits[name] = _gev_bits(cells, mu, mu * np.exp(tau), shape_inverse(phi))
            else:
                spec = LGM_VARIANTS[name]
                result = _fit_lgm(dataset, spec, plan, covariate_names, mcmc,
                                  mesh, site_fits(spec.trend), t0, priors)
                total = cv.n_samples_trend if spec.trend else cv.n_samples
                n_per = max(1, round(total / result.n_draws))

                def predictive_bits(cells, gauged: bool):
                    # one predictive sample set per site (and year, with a
                    # trend), drawn in the cells' first-appearance order and
                    # scored at all of its cells by one density estimate
                    groups: dict = {}
                    for k, (s, yr, _) in enumerate(cells):
                        groups.setdefault((s, yr if spec.trend else None), []).append(k)
                    values = np.array([v for _, _, v in cells], dtype=float)
                    bits = np.empty(len(cells))
                    for (s, yr), ks in groups.items():
                        target = (train_pos[s] if gauged else
                                  _ungauged_for(dataset, spec, s, covariate_names))
                        samples = posterior_predictive(result, target, rng, year=yr,
                                                       n_per_draw=n_per)
                        bits[ks] = _bits_from_density(kde_density(samples, values[ks]))
                    return bits

                within_bits[name] = predictive_bits(within_cells, gauged=True)
                out_bits[name] = predictive_bits(out_cells, gauged=False)
        except (NumericalError, DataError) as exc:
            failures[name] = str(exc)

    within = _build_table(within_bits, plan, max_train_year)
    out = _build_table(out_bits, plan, max_train_year)
    return CvResult(within=within, out_of_site=out, plan=plan, failures=failures)


# ----------------------------------------------------------------------------
# Goodness of fit and spatial diagnostics
# ----------------------------------------------------------------------------

# classical asymptotic upper-tail critical values for the fully specified case
_AD_CRITICAL = {0.15: 1.610, 0.10: 1.933, 0.05: 2.492, 0.025: 3.070, 0.01: 3.857}


def ad_critical_value(alpha: float) -> float:
    if alpha not in _AD_CRITICAL:
        raise ConfigError(f"no tabulated critical value for alpha={alpha}")
    return _AD_CRITICAL[alpha]


def anderson_darling(pit_values) -> tuple:
    """A-squared statistic for PIT values against the uniform law.

    Returns (statistic, n_clamped); values at the boundaries are clamped to
    1e-12 away from 0/1 and counted.
    """
    u = np.sort(np.asarray(pit_values, dtype=float))
    if u.size == 0:
        raise DataError("no PIT values")
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise DataError("PIT values must lie in [0, 1]")
    clamped = int(np.sum((u < 1e-12) | (u > 1.0 - 1e-12)))
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    n = u.size
    i = np.arange(1, n + 1)
    stat = -n - np.mean((2 * i - 1) * (np.log(u) + np.log1p(-u[::-1])))
    return float(stat), clamped


def empirical_variogram(values, coords, bin_edges) -> tuple:
    """Semivariance of site values per distance bin.

    Returns (bin centers, semivariance, pair counts); empty bins are NaN.
    """
    values = np.asarray(values, dtype=float)
    coords = np.asarray(coords, dtype=float)
    if values.size != coords.shape[0]:
        raise DataError("values and coordinates differ in length")
    if values.size < 2:
        raise DataError("variogram needs at least two sites")
    from scipy import spatial

    bin_edges = np.asarray(bin_edges, dtype=float)
    d = spatial.distance.pdist(coords)
    sq = spatial.distance.pdist(values[:, None], metric="sqeuclidean")
    which = np.digitize(d, bin_edges) - 1
    n_bins = bin_edges.size - 1
    gamma = np.full(n_bins, math.nan)
    counts = np.zeros(n_bins, dtype=int)
    for b in range(n_bins):
        mask = which == b
        counts[b] = int(mask.sum())
        if counts[b]:
            gamma[b] = 0.5 * float(sq[mask].mean())
    centers = 0.5 * (bin_edges[:-1] + bin_edges[1:])
    return centers, gamma, counts
