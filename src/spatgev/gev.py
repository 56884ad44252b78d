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
logpdf_derivatives gives the first and second derivatives of the same
log-density in (z, xi), and shape_derivs, trend_inverse_derivs and
trend_prior_derivs those of the links and priors, for the Newton
iterations of the max step and of the response surface, which climbs the
max step's own objective; reduced_variate_derivs gives those of w itself.
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
    "reduced_variate_derivs",
    "logpdf_derivatives",
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
    "shape_derivs",
    "trend_forward",
    "trend_inverse",
    "trend_inverse_derivs",
    "link_forward",
    "link_inverse",
    "shape_prior_logdensity",
    "trend_prior_logdensity",
    "trend_prior_derivs",
]

# Below this |xi| the kernel uses the Gumbel limit with Taylor corrections.
XI_SWITCH = 1e-7
# Below this |xi * z| logpdf_derivatives takes the xi-derivatives of w from
# their power series: the closed forms lose about eps / (xi*z)^2 to
# cancellation, and the series' first dropped term is (xi*z)^10.
XZ_SWITCH = 1e-2

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


def location_at(p: GevParams, t, t0: float = LINK.t0) -> np.ndarray | float:
    """Time-dependent location mu * (1 + delta * (t - t0))."""
    return p.mu * (1.0 + p.delta * (np.asarray(t, dtype=float) - t0))


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
    xi = np.asarray(xi, dtype=float)
    if not (np.abs(xi) < XI_SWITCH).any():
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


# Coefficients of L'(x) and L''(x), lowest power first, for
# L(x) = log1p(x) / x = sum_k (-1)^k x^k / (k + 1), so that w = z * L(xi * z).
_L1_SERIES = tuple((-1.0) ** k * k / (k + 1.0) for k in range(1, 11))
_L2_SERIES = tuple((-1.0) ** k * k * (k - 1.0) / (k + 1.0) for k in range(2, 12))


def reduced_variate_derivs(z, xi):
    """(w_z, w_xi, w_xixi): derivatives of w = reduced_variate(z, xi).

    w_z = 1/(1 + xi*z), w_xi = z^2 L'(xi*z) and w_xixi = z^3 L''(xi*z), as
    in logpdf_derivatives, which takes them from here.
    """
    z = np.asarray(z, dtype=float)
    x = xi * z
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_u = 1.0 / (1.0 + x)
        log_u = np.log1p(x)
        l1 = (x * inv_u - log_u) / (x * x)
        l2 = (2.0 * log_u - 2.0 * x * inv_u - (x * inv_u) ** 2) / (x * x * x)
        near = np.abs(x) < XZ_SWITCH
        if near.any():
            l1[near] = np.polynomial.polynomial.polyval(x[near], _L1_SERIES)
            l2[near] = np.polynomial.polynomial.polyval(x[near], _L2_SERIES)
        return inv_u, z * z * l1, z * z * z * l2


def logpdf_derivatives(z, xi):
    """Derivatives of g(z, xi) = -(1 + xi)*w - exp(-w), w = reduced_variate(z, xi).

    The log-density is -log(scale) + g.  Returns the arrays (g_z, g_xi,
    g_zz, g_zxi, g_xixi) at each standardized z; xi is one shape or one per
    z.  With u = 1 + xi*z and x = xi*z, w_z = 1/u, w_zz = -xi/u^2, w_zxi =
    -z/u^2, w_xi = z^2 L'(x) and w_xixi = z^3 L''(x) for L(x) =
    log1p(x)/x, whose closed forms cancel near x = 0: there, |x| <
    XZ_SWITCH (which holds for every z when xi = 0), the power series is
    used.  Outside the support the values are not finite.
    """
    z = np.asarray(z, dtype=float)
    w = reduced_variate(z, xi)
    inv_u, w_xi, w_xixi = reduced_variate_derivs(z, xi)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(-w)
        a = e - 1.0 - xi
        g_z = inv_u * a
        g_xi = w_xi * a - w
        g_zz = -xi * inv_u * inv_u * a - e * inv_u * inv_u
        g_zxi = -z * inv_u * inv_u * a - inv_u * (e * w_xi + 1.0)
        g_xixi = w_xixi * a - e * w_xi * w_xi - 2.0 * w_xi
    return g_z, g_xi, g_zz, g_zxi, g_xixi


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
    out = kernel(x, location_at(p, t0 if t is None else t, t0), p.sigma, p.xi)
    return out if out.ndim else float(out)


def gev_log_pdf(y, p: GevParams, t=None, t0: float = LINK.t0):
    """Log-density of the GEV with trend-adjusted location; -inf outside support."""
    return _at_year(logpdf, y, p, t, t0)


def gev_cdf(y, p: GevParams, t=None, t0: float = LINK.t0):
    """GEV distribution function; 0 below and 1 above the support."""
    return _at_year(cdf, y, p, t, t0)


def gev_quantile(prob, p: GevParams, t=None, t0: float = LINK.t0):
    """Quantile (inverse CDF) at probability prob in (0, 1)."""
    prob = np.asarray(prob, dtype=float)
    if not np.all((prob > 0.0) & (prob < 1.0)):
        raise ValueError("prob must lie strictly inside (0, 1)")
    return _at_year(quantile, prob, p, t, t0)


def gev_sample(p: GevParams, t, n: int, rng: np.random.Generator, t0: float = LINK.t0):
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

# trend_inverse takes tanh(gamma / delta0) at gamma held inside
# [-_GAMMA_HI, _GAMMA_HI].  tanh is already +-1 in float64 from |gamma| =
# 20 delta0 on, so no value moves; it keeps the divide from overflowing at
# |gamma| near the largest float.
_GAMMA_HI = 800.0 * LINK.delta0

# One ulp inside the ends of the open xi and delta intervals.
_XI_IN = float(np.nextafter(XI_LO, 0.0)), float(np.nextafter(XI_HI, 0.0))
_DELTA_IN = float(np.nextafter(LINK.delta0, 0.0))


def shape_forward(xi):
    """Map xi in (-1/2, 1/2) to the unconstrained transformed shape."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi <= XI_LO) or np.any(xi >= XI_HI):
        raise ValueError("xi must lie strictly inside (-0.5, 0.5)")
    inner = 1.0 - (xi + 0.5) ** LINK.c_phi
    out = _A_PHI + _B_PHI * np.log(-np.log(inner))
    return out if out.ndim else float(out)


def _shape_e(phi):
    """exp((phi - a) / b) at phi held inside [_PHI_LO, _PHI_HI]."""
    return np.exp((np.clip(np.asarray(phi, dtype=float), _PHI_LO, _PHI_HI) - _A_PHI) / _B_PHI)


def shape_inverse(phi):
    """Inverse shape map; finite phi always yields xi in (-1/2, 1/2).

    Clamped one ulp inside the endpoints where float64 saturates, so the
    open-interval invariant holds for arbitrarily large |phi|.
    """
    out = np.clip((-np.expm1(-_shape_e(phi))) ** (1.0 / LINK.c_phi) - 0.5, *_XI_IN)
    return out if out.ndim else float(out)


def shape_inverse_deriv(phi):
    """Analytic d xi / d phi, used as the change-of-variables Jacobian."""
    e = _shape_e(phi)
    inner = -np.expm1(-e)
    with np.errstate(over="ignore", under="ignore"):
        out = (1.0 / LINK.c_phi) * inner ** (1.0 / LINK.c_phi - 1.0) * np.exp(-e) * e / _B_PHI
    out = np.where(np.isfinite(out), out, 0.0)
    return out if out.ndim else float(out)


def shape_derivs(phi):
    """(h', h'', p', p'') at phi, in closed form, from one evaluation.

    h' and h'' are the derivatives of the inverse shape map xi = h(phi),
    p' and p'' those of shape_prior_logdensity, which is
    log 140 + 3 log(xi + 1/2) + 3 log(1/2 - xi) + log h'(phi).  With
    e = exp((phi - a)/b), q = 1 - exp(-e), r = e*exp(-e)/q and k = 1/c_phi:
    xi + 1/2 = q^k, h' = k q^k r / b, (log h')' = ((k - 1) r + 1 - e) / b
    and (log h')'' = ((k - 1) r (1 - e/q) - e) / b^2, which is how h'''
    enters p''.  Not clamped: 1/2 - xi is taken as -expm1(k log q), which
    keeps its digits as xi nears 1/2.
    """
    k = 1.0 / LINK.c_phi
    e = _shape_e(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -np.expm1(-e)
        k_log_q = k * np.log(q)
        r = e * np.exp(-e) / q
        xi_plus, xi_minus = np.exp(k_log_q), -np.expm1(k_log_q)
        h1 = k * xi_plus * r / _B_PHI
        m1 = ((k - 1.0) * r + 1.0 - e) / _B_PHI
        m2 = ((k - 1.0) * r * (1.0 - e / q) - e) / _B_PHI**2
        p1 = 3.0 * h1 * (1.0 / xi_plus - 1.0 / xi_minus) + m1
        p2 = (3.0 * h1 * m1 * (1.0 / xi_plus - 1.0 / xi_minus)
              - 3.0 * h1 * h1 * (1.0 / xi_plus**2 + 1.0 / xi_minus**2) + m2)
    return h1, h1 * m1, p1, p2


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
    out = np.clip(LINK.delta0 * np.tanh(_trend_x(gamma)), -_DELTA_IN, _DELTA_IN)
    return out if out.ndim else float(out)


def _trend_x(gamma):
    """gamma / delta0 at gamma held inside [-_GAMMA_HI, _GAMMA_HI]."""
    return np.clip(np.asarray(gamma, dtype=float), -_GAMMA_HI, _GAMMA_HI) / LINK.delta0


def trend_inverse_derivs(gamma):
    """(delta', delta'') of the inverse trend map, in closed form.

    delta' = sech(x)^2 at x = gamma / delta0, written as
    4 exp(-2|x|) / (1 + exp(-2|x|))^2, which cannot overflow, and
    delta'' = -2 tanh(x) delta' / delta0.
    """
    x = _trend_x(gamma)
    v = np.exp(-2.0 * np.abs(x))
    d1 = 4.0 * v / (1.0 + v) ** 2
    return d1, -2.0 * np.tanh(x) * d1 / LINK.delta0


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
    phi = np.asarray(phi, dtype=float)
    xi = shape_inverse(phi)
    with np.errstate(divide="ignore"):
        log_beta = _BETA_LOG_NORM + 3.0 * np.log(xi + 0.5) + 3.0 * np.log(0.5 - xi)
        log_jac = np.log(shape_inverse_deriv(phi))
    out = log_beta + log_jac
    out = np.where(np.isfinite(out), out, -np.inf)
    return out if out.ndim else float(out)


def trend_prior_logdensity(gamma):
    """Log prior of the transformed trend: Gaussian with sd 0.5 * delta0.

    -inf where (gamma / sd)^2 passes the largest float, without a warning.
    """
    gamma = np.asarray(gamma, dtype=float)
    sd = _TREND_PRIOR_SD
    with np.errstate(over="ignore"):
        out = -0.5 * math.log(2.0 * math.pi) - math.log(sd) - 0.5 * (gamma / sd) ** 2
    return out if out.ndim else float(out)


def trend_prior_derivs(gamma):
    """First and second derivatives of trend_prior_logdensity."""
    return -gamma / _TREND_PRIOR_SD**2, -1.0 / _TREND_PRIOR_SD**2
