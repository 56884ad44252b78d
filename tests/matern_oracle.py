"""The theoretical Matern (nu=1) correlation, an oracle for the SPDE field tests."""

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
