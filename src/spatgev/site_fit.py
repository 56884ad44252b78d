"""Per-site generalized maximum likelihood in link space.

Each site's block maxima are fit independently by maximizing the GEV
log-likelihood (from the kernel in gev.py) plus the site-level priors on the transformed shape and trend
(the "generalized" part; location and scale get no site-level prior).  The
result is a Gaussian pseudo-observation for the second stage: the link-space
mode together with the negative Hessian there as its precision.

The gradient and Hessian of that objective are exact: site_loglik_derivatives
chains gev.logpdf_derivatives through the link maps and adds the priors'
derivatives.  fit_site runs a damped Newton on them from moment-based
starting values; a Hessian that is not negative definite has its eigenvalues
floored in absolute value for the step, and for the precision it is repaired
by eigenvalue clipping and the repair is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._workers import run_indexed
from .errors import DataError
from .gev import (
    LINK,
    logpdf_derivatives,
    reduced_variate,
    shape_derivs,
    shape_inverse,
    shape_prior_logdensity,
    trend_inverse,
    trend_inverse_derivs,
    trend_prior_derivs,
    trend_prior_logdensity,
)

__all__ = [
    "SiteFit",
    "StackedFits",
    "site_loglik",
    "site_loglik_derivatives",
    "fit_site",
    "fit_all_sites",
    "stack_fits",
    "MIN_OBS_TREND",
    "MIN_OBS_STATIONARY",
]

MIN_OBS_TREND = 10
MIN_OBS_STATIONARY = 5
GRAD_TOL = 1e-6
EIG_FLOOR = 1e-8
MAX_RESTARTS = 5
NEWTON_ITERATIONS = 60
MAX_STEP = 1.0  # largest link-space move of one Newton step, per coordinate
MAX_HALVINGS = 30
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
    with np.errstate(over="ignore"):  # exp(-w) = inf: the sum is -inf
        ll = -n * math.log(sigma) - (1.0 + xi) * float(w.sum()) - float(np.exp(-w).sum())
    if not np.isfinite(ll):
        return -np.inf
    if include_priors:
        ll += float(shape_prior_logdensity(phi))
        if trend:
            ll += float(trend_prior_logdensity(gamma))
    return ll


def site_loglik_derivatives(z: np.ndarray, y: np.ndarray, years: np.ndarray,
                            t0: float = LINK.t0,
                            include_priors: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient and Hessian of site_loglik at z, where it is finite.

    Each observation adds -(psi + tau) + g(s, xi) with s = (y - mu_t)/sigma
    = Y - m c, where Y = y/sigma, m = exp(-tau), c = 1 + delta (t - t0) and
    xi = h(phi); g and its derivatives come from gev.logpdf_derivatives.
    The derivatives of s are -Y, -s and -m (t - t0) delta' in (psi, tau,
    gamma); of the second ones only d2s/dpsi2 = d2s/dpsi dtau = Y,
    d2s/dtau2 = s, d2s/dtau dgamma = m (t - t0) delta' and
    d2s/dgamma2 = -m (t - t0) delta'' are nonzero.  The Hessian is
    symmetric bit for bit.
    """
    z = np.asarray(z, dtype=float)
    p = z.shape[0]
    trend = p == 4
    psi, tau, phi = float(z[0]), float(z[1]), float(z[2])
    sigma = math.exp(psi) * math.exp(tau)
    m = math.exp(-tau)
    xi = float(shape_inverse(phi))
    h1, h2, p1, p2 = shape_derivs(phi)
    big_y = y / sigma
    ds = np.zeros((p, y.shape[0]))  # ds[a] = d s / d z[a]
    if trend:
        dt = years - t0
        d1, d2 = trend_inverse_derivs(float(z[3]))
        s = big_y - m * (1.0 + float(trend_inverse(float(z[3]))) * dt)
        ds[3] = -m * d1 * dt
    else:
        s = big_y - m
    ds[0] = -big_y
    ds[1] = -s
    g_s, g_xi, g_ss, g_sxi, g_xixi = logpdf_derivatives(s, xi)
    dxi = np.zeros(p)  # d xi / d z
    dxi[2] = h1
    sum_g_xi = float(g_xi.sum())

    with np.errstate(over="ignore", invalid="ignore"):  # not finite: the caller checks
        grad = ds @ g_s + dxi * sum_g_xi
        cross = np.outer(ds @ g_sxi, dxi)
        hess = (ds * g_ss) @ ds.T + cross + cross.T + np.outer(dxi, dxi) * float(g_xixi.sum())
        gs_y, gs_s = float(g_s @ big_y), float(g_s @ s)
    grad[:2] -= y.shape[0]
    hess[0, 0] += gs_y
    hess[0, 1] += gs_y
    hess[1, 0] += gs_y
    hess[1, 1] += gs_s
    hess[2, 2] += h2 * sum_g_xi
    if trend:
        gs_dt = float(g_s @ dt)
        hess[1, 3] += m * d1 * gs_dt
        hess[3, 1] += m * d1 * gs_dt
        hess[3, 3] -= m * d2 * gs_dt
    if include_priors:
        grad[2] += p1
        hess[2, 2] += p2
        if trend:
            p1, p2 = trend_prior_derivs(float(z[3]))
            grad[3] += p1
            hess[3, 3] += p2
    return grad, 0.5 * (hess + hess.T)


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


def _repair_pd(M: np.ndarray) -> tuple[np.ndarray, bool]:
    """Clip eigenvalues below EIG_FLOOR; returns (repaired, was_repaired)."""
    w, V = np.linalg.eigh(M)
    if w.min() >= EIG_FLOOR:
        return M, False
    R = (V * np.maximum(w, EIG_FLOOR)) @ V.T
    return 0.5 * (R + R.T), True


def _newton(f, derivs, x: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Damped Newton ascent of f from x; returns (x, f(x), converged).

    The step solves with -H after its eigenvalues are floored in absolute
    value at EIG_FLOOR, so it climbs f even where H is not negative
    definite.  It is cut to MAX_STEP per coordinate and halved until f does
    not fall.  Converged means max|gradient| < GRAD_TOL; a point where f or
    its derivatives are not finite, or where halving finds no rise, stops
    the run unconverged.
    """
    fx = f(x)
    if not np.isfinite(fx):
        return x, fx, False
    for _ in range(NEWTON_ITERATIONS):
        g, H = derivs(x)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
            return x, fx, False
        if np.abs(g).max() < GRAD_TOL:
            return x, fx, True
        lam, V = np.linalg.eigh(-H)
        step = V @ ((V.T @ g) / np.maximum(np.abs(lam), EIG_FLOOR))
        step *= min(1.0, MAX_STEP / np.abs(step).max())
        # a rise below the rounding of f cannot be seen: near the mode take
        # any step that does not fall by more than that, the gradient decides
        tiny = 1e-12 * (1.0 + abs(fx))
        flat = float(g @ step) < tiny
        for _ in range(MAX_HALVINGS):
            x_new = x + step
            f_new = f(x_new)
            if f_new >= fx or (flat and f_new >= fx - tiny):
                break
            step *= 0.5
        else:
            return x, fx, False
        x, fx = x_new, f_new
    return x, fx, False


def fit_site(y: np.ndarray, years: np.ndarray, trend: bool = True, t0: float = LINK.t0,
             include_priors: bool = True) -> SiteFit:
    """Maximize the generalized likelihood for one site's record.

    A damped Newton on the exact gradient and Hessian
    (site_loglik_derivatives) runs from the moment start; while it ends
    unconverged it is run again, up to MAX_RESTARTS times, from the moment
    start perturbed by N(0, 0.1^2) draws of a fixed-seed generator.  The
    fit is the point of highest site_loglik found, its loglik is
    site_loglik there.  Its precision is the negative Hessian there,
    repaired to positive definite when it is not, if that run converged,
    and EIG_FLOOR times the identity if it did not.  Records shorter than
    MIN_OBS_TREND (MIN_OBS_STATIONARY without trend) raise DataError.
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

    def f(z):
        return site_loglik(z, y, years, t0=t0, include_priors=include_priors)

    def derivs(z):
        return site_loglik_derivatives(z, y, years, t0=t0, include_priors=include_priors)

    z0 = _moment_init(y, trend)
    rng = np.random.default_rng(1234)
    best, best_f, converged = None, -np.inf, False
    n_restarts = 0
    start = z0
    for _ in range(MAX_RESTARTS + 1):
        x, fx, ok = _newton(f, derivs, start)
        if best is None or fx > best_f:
            best, best_f, converged = x, fx, ok
        if ok:
            break
        n_restarts += 1
        start = z0 + rng.normal(scale=0.1, size=z0.size)

    if converged:
        precision, repaired = _repair_pd(-derivs(best)[1])
    else:
        # no mode was found (a record with no spread has none): the
        # curvature where the search stopped says nothing, so the site
        # gets a flat precision and carries no weight
        precision, repaired = np.eye(best.size) * EIG_FLOOR, False
    return SiteFit(
        eta_hat=best,
        precision=precision,
        loglik=best_f,
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
                  t0: float = LINK.t0, station_ids: list | None = None) -> StackedFits:
    """Fit every site and assemble the stacked pseudo-observation.

    records is a list of (years, y) pairs, one per site, already aligned.
    Each site gets fit_site's generalized likelihood, priors included.
    A site's DataError is raised again prefixed with its station id
    (station_ids[i], or the record position when no ids are given); when
    several sites fail, the first in record order is raised.

    The sites are fit in forked worker processes, one per available core
    (_workers.run_indexed), with results equal to a serial loop bit for bit;
    restrict the process's CPU affinity (taskset -c 0) to fit them serially.
    """
    if not records:
        raise DataError("no site records given")

    def fit_one(i: int) -> SiteFit:
        yr, y = records[i]
        try:
            return fit_site(y, yr, trend=trend, t0=t0)
        except DataError as exc:
            sid = station_ids[i] if station_ids is not None else i
            raise DataError(f"station {sid}: {exc}") from exc

    # numpy loads these submodules on first use (np.median, the restarts'
    # generator, polyval in the shape series); a lazy import is a cache, so
    # fill it before the fork rather than once in every worker
    import numpy.ma  # noqa: F401
    import numpy.polynomial  # noqa: F401
    import numpy.random  # noqa: F401

    return stack_fits(run_indexed(fit_one, len(records)))
