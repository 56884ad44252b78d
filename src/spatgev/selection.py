"""Covariate selection by cross-validated forward search.

Selection runs separately for each transformed GEV parameter on a
simplified model: the per-site estimates are reduced to independent
univariate pseudo-observations by inverting each site's precision block
and keeping the diagonal entry for the parameter in question.  Candidate
regressions (intercept, chosen covariates, optional spatial field) are
compared by K-fold cross-validation over sites, scoring each fold by the
root mean squared error between held-out pseudo-observations and the
posterior mean regression surface.

The candidates' priors are a latent.Priors; the CLI builds it from the run
configuration's one priors section, which fit and cv read too.
Hyperparameters are estimated once per candidate model on the full data
from a posterior grid, then held fixed across folds; refitting them inside
every fold would multiply the cost tenfold for no measurable change in the
ranking.  Each fold reuses the candidate structure's one Gaussian system
(latent._collapsed_system) with the held-out sites' weights set to zero, so
its pattern and arrow layout are built once per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._workers import run_indexed
from .errors import ConfigError
from .latent import (
    LatentStructure,
    ParamModel,
    Priors,
    _collapsed_system,
    log_prior_theta,
    marginal_loglik,
)
from .site_fit import PARAM_NAMES, StackedFits
from .spde import Mesh, projector

__all__ = [
    "SelectionConfig",
    "UnivariateObs",
    "diagonalize",
    "make_folds",
    "choose_within",
    "cv_score",
    "forward_select",
    "select_all",
    "SelectionResult",
]


@dataclass
class SelectionConfig:
    n_folds: int = 10
    max_steps: int | None = None  # cap on covariates added; None tries all
    within_pct: float = 0.01  # accept the smallest model this close to the best
    spatial_pct: float = 0.03  # keep the field only above this relative gain
    seed: int = 0  # fold assignment
    grid_size: int = 6  # points per hyperparameter axis

    def validate(self) -> None:
        if self.n_folds < 2:
            raise ConfigError("n_folds must be at least 2")
        if not (0.0 <= self.within_pct < 1.0 and 0.0 <= self.spatial_pct < 1.0):
            raise ConfigError("selection thresholds must be in [0, 1)")
        if self.grid_size < 2:
            raise ConfigError("grid_size must be at least 2")
        if self.seed < 0:
            raise ConfigError("seed must not be negative")


@dataclass
class UnivariateObs:
    """Diagonalized pseudo-observations for one transformed parameter."""

    name: str
    eta: np.ndarray  # (J,)
    var: np.ndarray  # (J,) marginal variances from the inverted blocks


def diagonalize(stacked: StackedFits) -> dict:
    """Reduce stacked site fits to per-parameter univariate observations."""
    cov = np.linalg.inv(stacked.prec_blocks)
    eta = stacked.eta_by_param
    out = {}
    for a in range(stacked.n_params):
        name = PARAM_NAMES[a]
        out[name] = UnivariateObs(name=name, eta=eta[a].copy(), var=cov[:, a, a].copy())
    return out


def make_folds(n_sites: int, n_folds: int, seed: int = 0) -> list:
    """Shuffled, near-equal site folds; deterministic in the seed."""
    if n_folds > n_sites:
        raise ConfigError("more folds than sites")
    perm = np.random.default_rng(seed).permutation(n_sites)
    return [np.sort(chunk) for chunk in np.array_split(perm, n_folds)]


# ----------------------------------------------------------------------------
# Candidate models
# ----------------------------------------------------------------------------


def _build_candidate(obs: UnivariateObs, X: np.ndarray, spatial: bool,
                     mesh: Mesh | None, A, priors: Priors) -> LatentStructure:
    """One regression model for one parameter as a one-parameter latent structure."""
    prec = (1.0 / obs.var).reshape(-1, 1, 1)
    return LatentStructure(
        eta_hat=obs.eta.copy(),
        prec_blocks=prec,
        params=[ParamModel(name=obs.name, design=X, spatial=spatial)],
        mesh=mesh if spatial else None,
        A=A if spatial else None,
        **priors.structure_fields(mesh),
    )


def _theta_grid(obs: UnivariateObs, structure: LatentStructure,
                config: SelectionConfig) -> np.ndarray:
    """Posterior mean of log hyperparameters over a log-spaced grid."""
    scale = float(np.std(obs.eta, ddof=1))
    scale = max(scale, 1e-3)
    spatial = structure.params[0].spatial
    # a lone nugget axis is cheap, so refine it
    g = config.grid_size if spatial else max(25, config.grid_size)
    eps_axis = np.log(np.geomspace(0.05 * scale, 2.0 * scale, g))
    axes = [eps_axis]
    if spatial:
        s_axis = np.log(np.geomspace(0.05 * scale, 2.0 * scale, g))
        rho_axis = np.log(np.geomspace(0.08, 0.8, g) * structure.mesh.diameter)
        axes += [s_axis, rho_axis]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([a.ravel() for a in grids])
    logp = np.empty(pts.shape[0])
    for k, x in enumerate(pts):
        theta = np.exp(x)
        # measure is d(log theta), hence the Jacobian term
        logp[k] = (marginal_loglik(structure, theta)
                   + log_prior_theta(structure, theta) + x.sum())
    logp -= logp.max()
    w = np.exp(logp)
    w /= w.sum()
    return np.exp(w @ pts)


def _fold_rmse(structure: LatentStructure, theta: np.ndarray, folds: list) -> float:
    """Mean over folds of held-out RMSE under fixed hyperparameters."""
    rmses = []
    for test in folds:
        fac, rhs, _, _ = _collapsed_system(structure, theta, drop=test)
        pred = structure.Z[test] @ fac.solve(rhs)
        rmses.append(float(np.sqrt(np.mean((structure.eta_hat[test] - pred) ** 2))))
    return float(np.mean(rmses))


def cv_score(obs: UnivariateObs, X: np.ndarray, spatial: bool,
             mesh: Mesh | None, folds: list, config: SelectionConfig,
             A=None, priors: Priors | None = None) -> tuple:
    """Fit hyperparameters once, then cross-validate; returns (score, theta).

    priors defaults to Priors().
    """
    structure = _build_candidate(obs, X, spatial, mesh, A, priors or Priors())
    theta = _theta_grid(obs, structure, config)
    return _fold_rmse(structure, theta, folds), theta


# ----------------------------------------------------------------------------
# Forward search
# ----------------------------------------------------------------------------


def choose_within(scores, within_pct: float) -> int:
    """Index of the first (smallest) model within within_pct of the best score."""
    best = min(scores)
    for k, s in enumerate(scores):
        if s <= best * (1.0 + within_pct):
            return k
    return int(np.argmin(scores))


@dataclass
class StepRecord:
    added: str | None  # covariate added at this step; None for the base model
    names: tuple
    score: float
    theta: np.ndarray


@dataclass
class SelectionResult:
    parameter: str
    path: list  # StepRecord per nested model, spatial field on when available
    chosen: tuple  # covariate names of the selected model
    spatial: bool
    score: float  # CV score of the selected model (with chosen field setting)
    score_no_spatial: float | None
    folds: list

    def summary(self) -> str:
        steps = " -> ".join(["1"] + [r.added for r in self.path[1:]])
        return (f"{self.parameter}: {steps}; chosen {list(self.chosen) or '[1]'}"
                f" spatial={self.spatial} score={self.score:.4f}")


def _design(covariates: dict, names: tuple, n_sites: int) -> np.ndarray:
    cols = [np.ones(n_sites)] + [np.asarray(covariates[nm], dtype=float) for nm in names]
    return np.column_stack(cols)


def forward_select(obs: UnivariateObs, covariates: dict,
                   mesh: Mesh | None = None, sites: np.ndarray | None = None,
                   config: SelectionConfig | None = None,
                   priors: Priors | None = None) -> SelectionResult:
    """Greedy nested search over covariates, then the spatial-field decision.

    covariates maps name -> length-J column.  Candidates enter in score
    order; exact ties fall back to name order.  The final model is the
    smallest one on the path whose score is within within_pct of the best,
    and the spatial field is kept only when removing it costs more than
    spatial_pct of the score.
    """
    config = config or SelectionConfig()
    config.validate()
    n_sites = obs.eta.size
    for nm, col in covariates.items():
        if np.asarray(col).shape != (n_sites,):
            raise ConfigError(f"covariate {nm!r} has wrong length")
    use_spatial = mesh is not None
    A = projector(mesh, sites) if use_spatial else None
    folds = make_folds(n_sites, config.n_folds, config.seed)

    def score_model(names: tuple, spatial: bool) -> tuple:
        X = _design(covariates, names, n_sites)
        return cv_score(obs, X, spatial, mesh, folds, config, A=A, priors=priors)

    current: tuple = ()
    base_score, base_theta = score_model(current, use_spatial)
    path = [StepRecord(added=None, names=current, score=base_score, theta=base_theta)]
    remaining = sorted(covariates)
    max_steps = config.max_steps if config.max_steps is not None else len(remaining)
    while remaining and len(current) < max_steps:
        trials = []
        for nm in remaining:
            sc, th = score_model(current + (nm,), use_spatial)
            trials.append((sc, nm, th))
        sc, nm, th = min(trials, key=lambda t: (t[0], t[1]))
        current = current + (nm,)
        remaining.remove(nm)
        path.append(StepRecord(added=nm, names=current, score=sc, theta=th))

    chosen_rec = path[choose_within([r.score for r in path], config.within_pct)]

    spatial = use_spatial
    score_no_spatial = None
    if use_spatial:
        score_no_spatial, _ = score_model(chosen_rec.names, False)
        gain = (score_no_spatial - chosen_rec.score) / score_no_spatial
        spatial = gain > config.spatial_pct
    score = chosen_rec.score if spatial else (
        score_no_spatial if score_no_spatial is not None else chosen_rec.score)

    return SelectionResult(
        parameter=obs.name,
        path=path,
        chosen=chosen_rec.names,
        spatial=spatial,
        score=score,
        score_no_spatial=score_no_spatial,
        folds=folds,
    )


def select_all(stacked: StackedFits, covariates: dict,
               mesh: Mesh | None = None, sites: np.ndarray | None = None,
               config: SelectionConfig | None = None,
               priors: Priors | None = None) -> dict:
    """Run forward selection for each transformed parameter.

    The parameters run in forked worker processes, one per available core
    (_workers.run_indexed), with results equal to a serial loop bit for bit;
    restrict the process's CPU affinity (taskset -c 0) to run them serially.
    """
    obs_by_param = diagonalize(stacked)
    parameters = list(obs_by_param)
    if mesh is not None:
        # every spatial candidate reads these; fill them once, before the fork
        _ = mesh.field_spectrum, mesh.precision_terms
    # every candidate orders and factors its system; their lazy imports are
    # caches too, so load them here rather than once in each worker
    import scipy.linalg.lapack  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401

    def select_one(k: int) -> SelectionResult:
        return forward_select(obs_by_param[parameters[k]], covariates, mesh=mesh,
                              sites=sites, config=config, priors=priors)

    return dict(zip(parameters, run_indexed(select_one, len(parameters))))
