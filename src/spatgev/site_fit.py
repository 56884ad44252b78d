"""Per-site generalized maximum likelihood in link space.

Each site's block maxima are fit independently by maximizing the GEV
log-likelihood (from the kernel in gev.py) plus the site-level priors on the transformed shape and trend
(the "generalized" part; location and scale get no site-level prior).  The
result is a Gaussian pseudo-observation for the second stage: the link-space
mode together with the negative Hessian there as its precision.

Optimization is Nelder-Mead from moment-based starting values followed by a
Newton polish with finite-difference derivatives; non-positive-definite
Hessians are repaired by eigenvalue clipping and the repair is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .gev import (
    LINK,
    shape_inverse,
    reduced_variate,
    shape_prior_logdensity,
    trend_inverse,
    trend_prior_logdensity,
)

__all__ = [
    "SiteFit",
    "StackedFits",
    "site_loglik",
    "fit_site",
    "fit_all_sites",
    "stack_fits",
    "MIN_OBS_TREND",
    "MIN_OBS_STATIONARY",
]

MIN_OBS_TREND = 10
MIN_OBS_STATIONARY = 5
GRAD_TOL = 1e-6
HESS_REL_STEP = 1e-4
GRAD_REL_STEP = 1e-6
EIG_FLOOR = 1e-8
MAX_RESTARTS = 5
PARAM_NAMES = ("psi", "tau", "phi", "gamma")


def site_loglik(z: np.ndarray, y: np.ndarray, years: np.ndarray, t0: float = LINK.t0,
                include_priors: bool = True) -> float:
    """Generalized log-likelihood at link-space point z = (psi, tau, phi[, gamma]).

    The GEV term is -n*log(sigma) - (1+xi)*sum(w) - sum(exp(-w)) with w
    from gev.reduced_variate, so an observation outside the support gives
    w = +-inf and the sum is -inf or nan, both returned as -inf; so is a
    nonpositive trend-adjusted location.  The sum is kept in this form, not
    taken over gev.logpdf, because the site fits are pinned bit for bit.
    """
    z = np.asarray(z, dtype=float)
    trend = z.shape[0] == 4
    if not np.all(np.isfinite(z)):
        return -np.inf
    psi, tau, phi = float(z[0]), float(z[1]), float(z[2])
    gamma = float(z[3]) if trend else 0.0
    if psi > 300.0 or psi + tau > 300.0:  # overflow guard
        return -np.inf
    mu = math.exp(psi)
    sigma = mu * math.exp(tau)
    xi = float(shape_inverse(phi))
    n = y.shape[0]
    if trend:
        delta = float(trend_inverse(gamma))
        mu_t = mu * (1.0 + delta * (years - t0))
        if mu_t.min() <= 0.0:
            return -np.inf
        s = (y - mu_t) / sigma
    else:
        s = (y - mu) / sigma
    w = reduced_variate(s, xi)
    ll = -n * math.log(sigma) - (1.0 + xi) * float(w.sum()) - float(np.exp(-w).sum())
    if not np.isfinite(ll):
        return -np.inf
    if include_priors:
        ll += float(shape_prior_logdensity(phi))
        if trend:
            ll += float(trend_prior_logdensity(gamma))
    return ll


@dataclass
class SiteFit:
    """Gaussian pseudo-observation for one site."""

    eta_hat: np.ndarray  # link-space mode, length 3 or 4
    precision: np.ndarray  # negative Hessian at the mode (repaired to PD)
    loglik: float
    n_obs: int
    converged: bool
    hessian_repaired: bool
    n_restarts: int

    @property
    def trend(self) -> bool:
        return self.eta_hat.shape[0] == 4


def _moment_init(y: np.ndarray, trend: bool) -> np.ndarray:
    med = float(np.median(y))
    if med <= 0.0:
        raise DataError("block maxima must have a positive median for the log-location link")
    q75, q25 = np.percentile(y, [75.0, 25.0])
    iqr = float(q75 - q25)
    if iqr > 0.0:
        tau0 = math.log(0.78 * iqr / med)
    else:
        tau0 = -1.0
    tau0 = min(max(tau0, -4.0), 2.0)
    z0 = [math.log(med), tau0, 0.0]
    if trend:
        z0.append(0.0)
    return np.asarray(z0)


def _fd_gradient(f, x: np.ndarray) -> np.ndarray:
    g = np.empty_like(x)
    for i in range(x.size):
        h = GRAD_REL_STEP * max(abs(x[i]), 1.0)
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def _fd_hessian(f, x: np.ndarray) -> np.ndarray:
    n = x.size
    h = np.array([HESS_REL_STEP * max(abs(x[i]), 1.0) for i in range(n)])
    H = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        xp = x.copy(); xp[i] += h[i]
        xm = x.copy(); xm[i] -= h[i]
        H[i, i] = (f(xp) - 2.0 * f0 + f(xm)) / h[i] ** 2
    for i in range(n):
        for j in range(i + 1, n):
            xpp = x.copy(); xpp[[i, j]] += [h[i], h[j]]
            xpm = x.copy(); xpm[i] += h[i]; xpm[j] -= h[j]
            xmp = x.copy(); xmp[i] -= h[i]; xmp[j] += h[j]
            xmm = x.copy(); xmm[[i, j]] -= [h[i], h[j]]
            H[i, j] = H[j, i] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4.0 * h[i] * h[j])
    return H


def _repair_pd(M: np.ndarray) -> tuple[np.ndarray, bool]:
    """Clip eigenvalues below EIG_FLOOR; returns (repaired, was_repaired)."""
    w, V = np.linalg.eigh(M)
    if w.min() >= EIG_FLOOR:
        return M, False
    w = np.maximum(w, EIG_FLOOR)
    return (V * w) @ V.T, True


def fit_site(y: np.ndarray, years: np.ndarray, trend: bool = True, t0: float = LINK.t0,
             include_priors: bool = True) -> SiteFit:
    """Maximize the generalized likelihood for one site's record.

    Records shorter than MIN_OBS_TREND (MIN_OBS_STATIONARY without trend)
    raise DataError.
    """
    y = np.asarray(y, dtype=float)
    years = np.asarray(years, dtype=float)
    if y.shape != years.shape:
        raise DataError("y and years must align")
    keep = np.isfinite(y) & np.isfinite(years)
    y, years = y[keep], years[keep]
    n_min = MIN_OBS_TREND if trend else MIN_OBS_STATIONARY
    if y.size < n_min:
        raise DataError(f"need at least {n_min} observations, got {y.size}")

    from scipy.optimize import minimize

    def negf(z):
        return -site_loglik(z, y, years, t0=t0, include_priors=include_priors)

    z0 = _moment_init(y, trend)
    rng = np.random.default_rng(1234)
    best = None
    converged = False
    n_restarts = 0
    start = z0.copy()
    for attempt in range(MAX_RESTARTS + 1):
        res = minimize(negf, start, method="Nelder-Mead",
                       options=dict(maxiter=2000, xatol=1e-6, fatol=1e-9))
        x = res.x
        # Newton polish with finite differences
        for _ in range(60):
            g = _fd_gradient(negf, x)
            if not np.all(np.isfinite(g)):
                break  # FD stencil touches the -inf region; restart
            if np.abs(g).max() < GRAD_TOL:
                converged = True
                break
            H = _fd_hessian(negf, x)
            if not np.all(np.isfinite(H)):
                break
            H, _ = _repair_pd(H)
            step = np.linalg.solve(H, g)
            # a step below float resolution of f cannot be validated by a
            # line search: take it as-is, the gradient check decides
            if np.abs(step).max() < 1e-8 * (1.0 + np.abs(x).max()):
                x = x - step
                continue
            fx = negf(x)
            alpha = 1.0
            for _ in range(25):
                x_new = x - alpha * step
                if negf(x_new) < fx:
                    break
                alpha *= 0.5
            else:
                break
            x = x_new
        if best is None or negf(x) < negf(best):
            best = x
        if converged:
            break
        n_restarts += 1
        start = z0 + rng.normal(scale=0.1, size=z0.size)

    x = best
    H = _fd_hessian(negf, x)
    if not np.all(np.isfinite(H)):
        H = np.eye(x.size) * EIG_FLOOR
        converged = False
    precision, repaired = _repair_pd(0.5 * (H + H.T))
    return SiteFit(
        eta_hat=x,
        precision=precision,
        loglik=-negf(x),
        n_obs=int(y.size),
        converged=converged,
        hessian_repaired=repaired,
        n_restarts=n_restarts,
    )


@dataclass
class StackedFits:
    """All per-site pseudo-observations in parameter-major stacking.

    eta is the concatenation (psi_1..psi_J, tau_1..tau_J, phi_1..phi_J
    [, gamma_1..gamma_J]); prec_blocks[i] is site i's p x p precision block.
    """

    eta: np.ndarray  # (p*J,)
    prec_blocks: np.ndarray  # (J, p, p)
    site_fits: list[SiteFit] = field(repr=False)

    @property
    def n_sites(self) -> int:
        return self.prec_blocks.shape[0]

    @property
    def n_params(self) -> int:
        return self.prec_blocks.shape[1]

    @property
    def eta_by_param(self) -> np.ndarray:
        """View as (p, J): row a holds parameter a across sites."""
        return self.eta.reshape(self.n_params, self.n_sites)


def stack_fits(fits: list[SiteFit]) -> StackedFits:
    """Stack per-site fits (all with the same number of parameters)."""
    eta = np.stack([f.eta_hat for f in fits], axis=1).ravel()
    prec = np.stack([f.precision for f in fits])
    return StackedFits(eta=eta, prec_blocks=prec, site_fits=fits)


def fit_all_sites(records: list[tuple[np.ndarray, np.ndarray]], trend: bool = True,
                  t0: float = LINK.t0, include_priors: bool = True,
                  station_ids: list | None = None) -> StackedFits:
    """Fit every site and assemble the stacked pseudo-observation.

    records is a list of (years, y) pairs, one per site, already aligned.
    A site's DataError is raised again prefixed with its station id
    (station_ids[i], or the record position when no ids are given).
    """
    if not records:
        raise DataError("no site records given")
    fits = []
    for i, (yr, y) in enumerate(records):
        try:
            fits.append(fit_site(y, yr, trend=trend, t0=t0,
                                 include_priors=include_priors))
        except DataError as exc:
            sid = station_ids[i] if station_ids is not None else i
            raise DataError(f"station {sid}: {exc}") from exc
    return stack_fits(fits)
