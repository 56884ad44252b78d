"""GEV distribution functions, the four-parameter link map, and site-level priors.

Everything here is pure and vectorized: scalar or ndarray inputs broadcast, and
densities are computed in log space throughout.  The natural parameter space is
(mu, sigma, xi, delta) with a multiplicative linear trend in the location,

    mu_t = mu * (1 + delta * (t - t0)),

and the link space is (psi, tau, phi, gamma) = (log mu, log(sigma/mu),
shape_forward(xi), trend_forward(delta)), all unconstrained reals.

The GEV arithmetic has one home, the kernel reduced_variate, logpdf, cdf and
quantile on broadcasting (loc, scale, xi) arrays; gev_log_pdf, gev_cdf and
gev_quantile apply it to one site's GevParams.  site_fit.site_loglik takes w
from it but sums -n*log(sigma) - (1+xi)*sum(w) - sum(exp(-w)) itself:
summing logpdf rounds differently and would move the golden site fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkConstants",
    "LINK",
    "GevParams",
    "LinkedParams",
    "location_at",
    "reduced_variate",
    "logpdf",
    "cdf",
    "quantile",
    "gev_log_pdf",
    "gev_cdf",
    "gev_quantile",
    "gev_sample",
    "shape_forward",
    "shape_inverse",
    "shape_inverse_deriv",
    "trend_forward",
    "trend_inverse",
    "link_forward",
    "link_inverse",
    "shape_prior_logdensity",
    "trend_prior_logdensity",
]

# Below this |xi| the kernel uses the Gumbel limit with Taylor corrections.
XI_SWITCH = 1e-7

# Half-open shape interval enforced by the link.
XI_LO, XI_HI = -0.5, 0.5


def _compute_link_constants(c_phi: float) -> tuple[float, float]:
    """Closed forms for the slope and offset that give h(0)=0 and h'(0)=1."""
    half_c = 0.5**c_phi
    b = -(1.0 / c_phi) * math.log(1.0 - half_c) * (1.0 - half_c) * 2.0 ** (c_phi - 1.0)
    a = -b * math.log(-math.log(1.0 - half_c))
    return b, a


@dataclass(frozen=True)
class LinkConstants:
    """Constants of the shape and trend transformations.

    b_phi and a_phi are derived from c_phi so that the shape transformation is
    the identity to first order at zero.  delta0 bounds the yearly trend
    fraction and t0 anchors the trend.
    """

    c_phi: float = 0.8
    delta0: float = 0.008
    t0: float = 1975.0

    @property
    def b_phi(self) -> float:
        return _compute_link_constants(self.c_phi)[0]

    @property
    def a_phi(self) -> float:
        return _compute_link_constants(self.c_phi)[1]


LINK = LinkConstants()
_B_PHI, _A_PHI = _compute_link_constants(LINK.c_phi)

# Gaussian prior scale for the transformed trend.
_TREND_PRIOR_SD = 0.5 * LINK.delta0
# Symmetric Beta(4, 4) on (-1/2, 1/2): normalizing constant 1/B(4,4) = 140.
_BETA_LOG_NORM = math.log(140.0)


@dataclass
class GevParams:
    """Natural GEV parameters for one site: location intercept, scale, shape, trend."""

    mu: float
    sigma: float
    xi: float
    delta: float = 0.0

    def validate(self) -> None:
        if not (self.mu > 0.0):
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not (self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (XI_LO < self.xi < XI_HI):
            raise ValueError(f"xi must lie strictly inside ({XI_LO}, {XI_HI}), got {self.xi}")
        if not (abs(self.delta) < LINK.delta0):
            raise ValueError(f"|delta| must be < {LINK.delta0}, got {self.delta}")


@dataclass
class LinkedParams:
    """Link-space coordinates (all unconstrained reals)."""

    psi: float
    tau: float
    phi: float
    gamma: float = 0.0


def location_at(p: GevParams, t, t0: float | None = None) -> np.ndarray | float:
    """Time-dependent location mu * (1 + delta * (t - t0))."""
    anchor = LINK.t0 if t0 is None else t0
    return p.mu * (1.0 + p.delta * (np.asarray(t, dtype=float) - anchor))


# ----------------------------------------------------------------------------
# The GEV kernel: broadcasting array functions of (loc, scale, xi)
# ----------------------------------------------------------------------------

def reduced_variate(z, xi):
    """w = log(1 + xi*z)/xi at standardized z = (y - loc)/scale.

    The log-density is -log(scale) - (1+xi)*w - exp(-w) and the CDF is
    exp(-exp(-w)).  For |xi| < XI_SWITCH the Taylor branch z - xi*z^2/2 +
    xi^2*z^3/3 carries both across xi = 0.  Outside the support w is -inf
    below the lower endpoint (xi > 0) and +inf above the upper one (xi < 0).
    """
    z = np.asarray(z, dtype=float)
    if isinstance(xi, float):  # the max step's scalar shape: skip numpy's overhead
        in_band = abs(xi) < XI_SWITCH
    else:
        xi = np.asarray(xi, dtype=float)
        in_band = (np.abs(xi) < XI_SWITCH).any()
    if not in_band:
        # the common case, bit-equal to the general path below: no shape in
        # the Taylor band and every point inside the support
        xz = xi * z
        if (xz > -1.0).all():
            return np.log1p(xz) / xi
    small = np.abs(xi) < XI_SWITCH
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = np.log1p(xi * z) / np.where(small, 1.0, xi)
        w = np.where(1.0 + xi * z > 0.0, w, np.where(xi > 0.0, -np.inf, np.inf))
        if small.any():
            w = np.where(small, z - xi * z * z / 2.0 + xi * xi * z**3 / 3.0, w)
    return w


def logpdf(y, loc, scale, xi):
    """GEV log-density; -inf outside the support."""
    w = reduced_variate((y - loc) / scale, xi)
    with np.errstate(over="ignore", invalid="ignore"):
        out = -np.log(scale) - (1.0 + xi) * w - np.exp(-w)
    return np.where(np.isfinite(w), out, -np.inf)


def cdf(y, loc, scale, xi):
    """GEV distribution function; 0 below and 1 above the support."""
    w = reduced_variate((y - loc) / scale, xi)
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-w))


def quantile(prob, loc, scale, xi):
    """GEV quantile at prob, which broadcasts against the parameters."""
    prob = np.asarray(prob, dtype=float)
    ell = np.log(-np.log(prob))
    xi = np.asarray(xi, dtype=float)
    small = np.abs(xi) < XI_SWITCH
    xi_safe = np.where(small, 1.0, xi)
    bracket = np.where(
        small,
        -ell + xi * ell**2 / 2.0 - xi**2 * ell**3 / 6.0,
        np.expm1(-xi_safe * ell) / xi_safe,
    )
    return loc + scale * bracket


def _at_year(kernel, x, p: GevParams, t, t0):
    """kernel(x, location, sigma, xi) for one site at year t (default: the anchor)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("observations must be finite")
    if t is None:
        t = t0 if t0 is not None else LINK.t0
    out = kernel(x, location_at(p, t, t0), p.sigma, p.xi)
    return out if out.ndim else float(out)


def gev_log_pdf(y, p: GevParams, t=None, t0: float | None = None):
    """Log-density of the GEV with trend-adjusted location; -inf outside support."""
    return _at_year(logpdf, y, p, t, t0)


def gev_cdf(y, p: GevParams, t=None, t0: float | None = None):
    """GEV distribution function; 0 below and 1 above the support."""
    return _at_year(cdf, y, p, t, t0)


def gev_quantile(prob, p: GevParams, t=None, t0: float | None = None):
    """Quantile (inverse CDF) at probability prob in (0, 1)."""
    prob = np.asarray(prob, dtype=float)
    if not np.all((prob > 0.0) & (prob < 1.0)):
        raise ValueError("prob must lie strictly inside (0, 1)")
    return _at_year(quantile, prob, p, t, t0)


def gev_sample(p: GevParams, t, n: int, rng: np.random.Generator, t0: float | None = None):
    """Draw n variates at year(s) t by inverse-CDF of uniforms."""
    u = rng.uniform(size=n)
    return gev_quantile(u, p, t, t0)


# ----------------------------------------------------------------------------
# Componentwise links
# ----------------------------------------------------------------------------

# The shape map's exponent (phi - a) / b is taken at phi held inside
# [_PHI_LO, _PHI_HI].  That moves no value: below, e = exp((phi - a) / b) is
# already 0; above, e > 1e300, so expm1(-e) is -1 and exp(-e) * e is 0 in
# float64, xi sits at its clamp and its derivative is zero.  It keeps the
# divide and exp from overflowing at large |phi|.
_PHI_LO, _PHI_HI = _A_PHI - 800.0 * _B_PHI, _A_PHI + 700.0 * _B_PHI

# One ulp inside the ends of the open xi and delta intervals.
_XI_IN = float(np.nextafter(XI_LO, 0.0)), float(np.nextafter(XI_HI, 0.0))
_DELTA_IN = float(np.nextafter(LINK.delta0, 0.0))


def _clamp(out: np.ndarray, lo: float, hi: float):
    """out clipped to [lo, hi]; a float for 0-d out, where np.clip is slow."""
    return np.clip(out, lo, hi) if out.ndim else min(max(float(out), lo), hi)


def shape_forward(xi):
    """Map xi in (-1/2, 1/2) to the unconstrained transformed shape."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi <= XI_LO) or np.any(xi >= XI_HI):
        raise ValueError("xi must lie strictly inside (-0.5, 0.5)")
    inner = 1.0 - (xi + 0.5) ** LINK.c_phi
    out = _A_PHI + _B_PHI * np.log(-np.log(inner))
    return out if out.ndim else float(out)


def _shape_e(phi):
    """exp((phi - a) / b); a float phi is worked on as a float64 scalar.

    The max step passes floats, where numpy's 0-d array overhead dominates;
    the scalar gets the same operations as a 0-d array, so the same bits.
    """
    if isinstance(phi, float):
        return np.exp((np.float64(min(max(phi, _PHI_LO), _PHI_HI)) - _A_PHI) / _B_PHI)
    return np.exp((np.clip(np.asarray(phi, dtype=float), _PHI_LO, _PHI_HI) - _A_PHI) / _B_PHI)


def shape_inverse(phi):
    """Inverse shape map; finite phi always yields xi in (-1/2, 1/2).

    Clamped one ulp inside the endpoints where float64 saturates, so the
    open-interval invariant holds for arbitrarily large |phi|.
    """
    out = (-np.expm1(-_shape_e(phi))) ** (1.0 / LINK.c_phi) - 0.5
    return _clamp(out, *_XI_IN)


def shape_inverse_deriv(phi):
    """Analytic d xi / d phi, used as the change-of-variables Jacobian."""
    e = _shape_e(phi)
    inner = -np.expm1(-e)
    with np.errstate(over="ignore", under="ignore"):
        out = (1.0 / LINK.c_phi) * inner ** (1.0 / LINK.c_phi - 1.0) * np.exp(-e) * e / _B_PHI
    out = np.where(np.isfinite(out), out, 0.0)
    return out if out.ndim else float(out)


def trend_forward(delta):
    """Map the trend fraction in (-delta0, delta0) to an unconstrained value."""
    delta = np.asarray(delta, dtype=float)
    if np.any(np.abs(delta) >= LINK.delta0):
        raise ValueError(f"|delta| must be < {LINK.delta0}")
    d0 = LINK.delta0
    out = 0.5 * d0 * (np.log(d0 + delta) - np.log(d0 - delta))
    return out if out.ndim else float(out)


def trend_inverse(gamma):
    """Inverse trend map: delta0 * tanh(gamma / delta0).

    Clamped one ulp inside +-delta0, where tanh saturates, so finite gamma
    always yields delta in the open interval (-delta0, delta0).
    """
    gamma = np.asarray(gamma, dtype=float)
    out = LINK.delta0 * np.tanh(gamma / LINK.delta0)
    return _clamp(out, -_DELTA_IN, _DELTA_IN)


def link_forward(p: GevParams) -> LinkedParams:
    """Natural parameters to link space."""
    p.validate()
    return LinkedParams(
        psi=math.log(p.mu),
        tau=math.log(p.sigma / p.mu),
        phi=float(shape_forward(p.xi)),
        gamma=float(trend_forward(p.delta)),
    )


def link_inverse(lp: LinkedParams) -> GevParams:
    """Link space back to natural parameters."""
    mu = math.exp(lp.psi)
    return GevParams(
        mu=mu,
        sigma=mu * math.exp(lp.tau),
        xi=float(shape_inverse(lp.phi)),
        delta=float(trend_inverse(lp.gamma)),
    )


# ----------------------------------------------------------------------------
# Site-level priors entering the generalized likelihood
# ----------------------------------------------------------------------------

def shape_prior_logdensity(phi):
    """Log prior of the transformed shape.

    Beta(4, 4) shifted to (-1/2, 1/2) on the shape scale, pushed through the
    inverse map with its analytic Jacobian.
    """
    if isinstance(phi, float):  # the max step's scalar shape: skip numpy's overhead
        return _shape_prior_scalar(phi)
    phi = np.asarray(phi, dtype=float)
    xi = shape_inverse(phi)
    with np.errstate(divide="ignore"):
        log_beta = _BETA_LOG_NORM + 3.0 * np.log(xi + 0.5) + 3.0 * np.log(0.5 - xi)
        log_jac = np.log(shape_inverse_deriv(phi))
    out = log_beta + log_jac
    out = np.where(np.isfinite(out), out, -np.inf)
    return out if out.ndim else float(out)


def _shape_prior_scalar(phi: float) -> float:
    """shape_prior_logdensity for one float: the same ufuncs on float64 scalars.

    Each step repeats the 0-d array path's operation on the same operands, so
    the result is equal bit for bit; e, the expm1 term and xi are computed
    once, and a zero Jacobian returns -inf before its log is taken.
    """
    e = _shape_e(phi)
    inner = -np.expm1(-e)
    xi = _clamp(inner ** (1.0 / LINK.c_phi) - 0.5, *_XI_IN)
    jac = (1.0 / LINK.c_phi) * inner ** (1.0 / LINK.c_phi - 1.0) * np.exp(-e) * e / _B_PHI
    if not jac > 0.0:  # zero, or nan for a nan phi
        return -math.inf
    out = _BETA_LOG_NORM + 3.0 * np.log(xi + 0.5) + 3.0 * np.log(0.5 - xi) + np.log(jac)
    return float(out) if math.isfinite(out) else -math.inf


def trend_prior_logdensity(gamma):
    """Log prior of the transformed trend: Gaussian with sd 0.5 * delta0."""
    gamma = np.asarray(gamma, dtype=float)
    sd = _TREND_PRIOR_SD
    out = -0.5 * math.log(2.0 * math.pi) - math.log(sd) - 0.5 * (gamma / sd) ** 2
    return out if out.ndim else float(out)
