"""Return levels, covariate effects, ungauged-site prediction, and
posterior predictive sampling.

All operations on a posterior are pure transforms of its draws
(latent.SmoothResult), with the trend anchored at the posterior's own t0.  Return
levels are per-draw GEV quantiles at probability 1 - 1/T summarized by the
posterior mean and a central 95% interval; ungauged sites receive fresh
regression-plus-field predictions with a newly drawn nugget per posterior
draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .gev import LINK, GevParams, gev_quantile, quantile, shape_inverse, trend_inverse
from .latent import SmoothResult
from .spde import projector

__all__ = [
    "ReturnLevelCurve",
    "UngaugedSite",
    "return_level_draws",
    "return_level",
    "effect_table",
    "predict_ungauged",
    "ungauged_return_level",
    "posterior_predictive",
    "order_stat_band",
    "detrend_observations",
]


# ----------------------------------------------------------------------------
# Natural parameters of the draws
# ----------------------------------------------------------------------------


def _natural_draws(linked: dict, year: float | None, t0: float):
    """Linked draws dict -> (mu_t, sigma, xi) arrays at the given year (None:
    the trend's anchor year t0)."""
    mu = np.exp(linked["psi"])
    t = t0 if year is None else float(year)
    delta = trend_inverse(linked["gamma"]) if "gamma" in linked else 0.0
    mu_t = mu * (1.0 + delta * (t - t0))
    return mu_t, mu * np.exp(linked["tau"]), shape_inverse(linked["phi"])


def _site_linked_draws(result: SmoothResult, site: int) -> dict:
    J = result.structure.n_sites
    if not (0 <= site < J):
        raise DataError(f"site index {site} outside 0..{J - 1}")
    return {pm.name: result.eta_by_param(pm.name)[:, site]
            for pm in result.structure.params}


# ----------------------------------------------------------------------------
# Return levels
# ----------------------------------------------------------------------------


@dataclass
class ReturnLevelCurve:
    periods: np.ndarray
    mean: np.ndarray
    lower: np.ndarray  # central 95% interval
    upper: np.ndarray
    year: float | None = None


def _check_periods(periods) -> np.ndarray:
    periods = np.atleast_1d(np.asarray(periods, dtype=float))
    if np.any(periods <= 1.0):
        raise ConfigError("return periods must exceed 1 year")
    return periods


def _curve_from_linked(linked: dict, periods, year, t0: float) -> ReturnLevelCurve:
    periods = _check_periods(periods)
    mu_t, sigma, xi = _natural_draws(linked, year, t0)
    draws = quantile(1.0 - 1.0 / periods[:, None], mu_t, sigma, xi)
    return ReturnLevelCurve(
        periods=periods,
        mean=draws.mean(axis=1),
        lower=np.quantile(draws, 0.025, axis=1),
        upper=np.quantile(draws, 0.975, axis=1),
        year=year,
    )


def return_level_draws(result: SmoothResult, site: int, period: float,
                       year: float | None = None) -> np.ndarray:
    """Per-draw T-year levels at a gauged site, one value per posterior draw."""
    period = float(_check_periods(period)[0])
    linked = _site_linked_draws(result, site)
    mu_t, sigma, xi = _natural_draws(linked, year, result.t0)
    return quantile(1.0 - 1.0 / period, mu_t, sigma, xi)


def return_level(result: SmoothResult, site: int, periods,
                 year: float | None = None) -> ReturnLevelCurve:
    """Posterior summary of return levels at a gauged site."""
    return _curve_from_linked(_site_linked_draws(result, site), periods, year, result.t0)


# ----------------------------------------------------------------------------
# Multiplicative covariate and spatial effects
# ----------------------------------------------------------------------------


def _posterior_mean_coeffs(result: SmoothResult) -> dict:
    out = {}
    for pm in result.structure.params:
        out[pm.name] = result.nu_block(pm.name, "beta").mean(axis=0)
    return out


def _event_at(result: SmoothResult, values: dict, coeffs: dict, period: float) -> float:
    """T-year event with regression terms only: nugget and field zeroed."""
    linked = {}
    for pm in result.structure.params:
        x = np.concatenate(([1.0], [values[nm] for nm in pm.covariate_names]))
        linked[pm.name] = float(x @ coeffs[pm.name])
    lp = {k: np.asarray(v) for k, v in linked.items()}
    lp.pop("gamma", None)  # the event is evaluated at the anchor year
    mu_t, sigma, xi = _natural_draws(lp, None, result.t0)
    return float(quantile(1.0 - 1.0 / period, mu_t, sigma, xi))


def effect_table(result: SmoothResult, covariate_values: dict,
                 period: float = 100.0) -> list:
    """Quartile-versus-median multiplicative effects on the T-year event.

    covariate_values maps covariate name -> column of transformed values over
    the training sites; quartiles come from these columns.  Spatial
    components are profiled the same way through the quartiles of their
    posterior-mean site values.  Returns rows of
    (component, effect_at_q1, effect_at_q3).
    """
    coeffs = _posterior_mean_coeffs(result)
    names = []
    for pm in result.structure.params:
        for nm in pm.covariate_names:
            if nm not in covariate_values:
                raise ConfigError(f"no values supplied for covariate {nm!r}")
            if nm not in names:
                names.append(nm)
    medians = {nm: float(np.median(covariate_values[nm])) for nm in names}
    base = _event_at(result, medians, coeffs, period)
    rows = []
    for nm in names:
        q1, q3 = np.percentile(covariate_values[nm], [25.0, 75.0])
        at_q1 = _event_at(result, {**medians, nm: float(q1)}, coeffs, period)
        at_q3 = _event_at(result, {**medians, nm: float(q3)}, coeffs, period)
        rows.append((nm, at_q1 / base, at_q3 / base))
    # spatial components act additively on one link parameter at a time
    for pm in result.structure.params:
        if not pm.spatial:
            continue
        A = result.structure.A
        u_site = A @ result.nu_block(pm.name, "u").mean(axis=0)
        u1, u2, u3 = np.percentile(u_site, [25.0, 50.0, 75.0])
        effects = []
        for uq in (u1, u3):
            shift = dict(coeffs)
            adj = coeffs[pm.name].copy()
            adj[0] += uq - u2
            shift[pm.name] = adj
            effects.append(_event_at(result, medians, shift, period) / base)
        rows.append((f"spatial_{pm.name}", effects[0], effects[1]))
    return rows


# ----------------------------------------------------------------------------
# Ungauged sites
# ----------------------------------------------------------------------------


@dataclass
class UngaugedSite:
    """Coordinates plus a transformed covariate row per link parameter.

    design_rows maps parameter name -> full design row (leading 1 for the
    intercept) built with the training standardization statistics.
    """

    coords: np.ndarray
    design_rows: dict = field(default_factory=dict)


def predict_ungauged(result: SmoothResult, site: UngaugedSite,
                     rng: np.random.Generator,
                     include_nugget: bool = True) -> dict:
    """Per-draw linked parameters at an unobserved location.

    Each posterior draw contributes x'beta + a'u plus one fresh nugget draw
    with that draw's nugget scale.  Coordinates outside the mesh raise.
    """
    structure = result.structure
    a_row = None
    if any(pm.spatial for pm in structure.params):
        a_row = projector(structure.mesh, np.atleast_2d(site.coords))
    out = {}
    for pm in structure.params:
        if pm.name not in site.design_rows:
            raise ConfigError(f"missing design row for parameter {pm.name!r}")
        x = np.asarray(site.design_rows[pm.name], dtype=float)
        if x.shape != (pm.design.shape[1],):
            raise ConfigError(
                f"design row for {pm.name!r} has length {x.size}, "
                f"expected {pm.design.shape[1]}"
            )
        draws = result.nu_block(pm.name, "beta") @ x
        if pm.spatial:
            draws = draws + result.nu_block(pm.name, "u") @ a_row[0]
        if include_nugget:
            k = structure.theta_names.index(f"eps_{pm.name}")
            draws = draws + result.theta_draws[:, k] * rng.standard_normal(draws.shape[0])
        out[pm.name] = draws
    return out


def ungauged_return_level(result: SmoothResult, site: UngaugedSite, periods,
                          rng: np.random.Generator, year: float | None = None,
                          include_nugget: bool = True) -> ReturnLevelCurve:
    linked = predict_ungauged(result, site, rng, include_nugget=include_nugget)
    return _curve_from_linked(linked, periods, year, result.t0)


# ----------------------------------------------------------------------------
# Posterior predictive sampling
# ----------------------------------------------------------------------------


def posterior_predictive(result: SmoothResult, site: int | UngaugedSite,
                         rng: np.random.Generator, year: float | None = None,
                         n_per_draw: int = 8) -> np.ndarray:
    """GEV samples from the predictive distribution at one site and year.

    Returns n_draws * n_per_draw values; gauged sites use their latent
    draws, ungauged sites route through predict_ungauged.
    """
    if isinstance(site, UngaugedSite):
        linked = predict_ungauged(result, site, rng)
    else:
        linked = _site_linked_draws(result, site)
    mu_t, sigma, xi = _natural_draws(linked, year, result.t0)
    u = rng.uniform(size=(n_per_draw, mu_t.shape[0]))
    return quantile(u, mu_t, sigma, xi).ravel()


def order_stat_band(n: int, p: GevParams, level: float = 0.95,
                    year: float | None = None, t0: float = LINK.t0) -> np.ndarray:
    """Per-rank (k = 1..n) central intervals of the order statistics.

    The k-th order statistic of n iid draws has CDF value distributed
    Beta(k, n + 1 - k); the band maps that distribution's tail quantiles
    through the fitted quantile function.  Returns shape (n, 2).
    """
    if n < 1:
        raise ConfigError("record length must be at least 1")
    from scipy import stats

    alpha = (1.0 - level) / 2.0
    k = np.arange(1, n + 1)
    return np.column_stack([gev_quantile(stats.beta.ppf(q, k, n + 1 - k), p, year, t0)
                            for q in (alpha, 1.0 - alpha)])


def detrend_observations(y, years, delta: float, t0: float = LINK.t0) -> np.ndarray:
    """Remove a fitted linear location trend: y / (1 + delta * (year - t0))."""
    factor = 1.0 + delta * (np.asarray(years, dtype=float) - t0)
    if np.any(factor <= 0.0):
        raise DataError("trend factor nonpositive inside the record")
    return np.asarray(y, dtype=float) / factor
