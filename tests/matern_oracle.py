"""Oracles for the SPDE field tests: the theoretical Matern (nu=1) correlation,
and the precision log-determinant from its factored form."""

import math

import numpy as np
from scipy.special import kv


def matern_correlation(dist, rho: float):
    """Theoretical Matern (nu=1) correlation at the given distances."""
    dist = np.asarray(dist, dtype=float)
    kappa = math.sqrt(8.0) / rho
    kd = kappa * dist
    with np.errstate(invalid="ignore"):
        out = np.where(kd > 0.0, kd * kv(1.0, kd), 1.0)
    return out if out.ndim else float(out)


def precision_logdet(C, G, rho: float, s: float) -> float:
    """log det Q without forming Q: n log tau^2 + 2 log det(kappa^2 C + G) - log det C."""
    kappa = math.sqrt(8.0) / rho
    tau2 = 1.0 / (4.0 * math.pi * kappa**2 * s**2)
    sign, logdet_k = np.linalg.slogdet(((kappa**2) * C + G).toarray())
    assert sign == 1.0
    return C.shape[0] * math.log(tau2) + 2.0 * logdet_k - float(np.sum(np.log(C.diagonal())))
