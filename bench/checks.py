"""Correctness checks and the benchmark's own ESS estimator.

Each check returns a list of problems; an empty list means it passed.  The
checks read only what the commands wrote, except the likelihood oracle,
which calls ``spatgev.latent.marginal_loglik`` on the structure a ``fit``
command built and compares it with a dense multivariate-normal density.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np
from scipy import linalg

# |sparse - dense| allowed for the log marginal likelihood.  Both routes
# lose digits as Qnu's condition number grows with the field range: at
# cond(Qnu) = 2.2e13 they differ by 7.4e-6, and each moves by about 3e-6 when
# a range changes by one part in 1e7.  The cond term allows 7 times the worst
# gap seen and stays below the 1e-3 error the self-test injects up to
# cond(Qnu) = 4.5e14.
ORACLE_ABS_TOL = 1e-6
ORACLE_REL_TOL = 1e-10
ORACLE_COND_TOL = 1e-2 * np.finfo(float).eps


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def read_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_manifest(out_dir: str) -> list:
    """Every output named in manifest.json exists and has the recorded hash."""
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        return [f"{out_dir}: no manifest.json"]
    with open(path) as fh:
        outputs = json.load(fh).get("outputs", {})
    if not outputs:
        return [f"{path}: lists no outputs"]
    problems = []
    for name, digest in outputs.items():
        file_path = os.path.join(out_dir, name)
        if not os.path.exists(file_path):
            problems.append(f"{file_path}: missing")
        elif sha256(file_path) != digest:
            problems.append(f"{file_path}: hash differs from the manifest")
    return problems


def check_return_levels(path: str, key: str = "station") -> list:
    """Finite levels, lower <= mean <= upper, no fall as the period grows."""
    rows = read_rows(path)
    if not rows:
        return [f"{path}: no rows"]
    level = "mean" if "mean" in rows[0] else "level"
    problems = []
    curves: dict = {}
    for r in rows:
        lo, mid, hi = float(r["lower"]), float(r[level]), float(r["upper"])
        if not all(math.isfinite(v) for v in (lo, mid, hi)):
            problems.append(f"{path}: non-finite level in {r}")
        elif not lo <= mid <= hi:
            problems.append(f"{path}: interval does not hold the level in {r}")
        curves.setdefault(r.get(key, ""), []).append((float(r["period"]), lo, mid, hi))
    for name, curve in curves.items():
        curve.sort()
        for a, b in zip(curve, curve[1:]):
            if any(y < x for x, y in zip(a[1:], b[1:])):
                problems.append(f"{path}: levels of {name or 'aggregate'} fall "
                                f"between periods {a[0]} and {b[0]}")
    return problems


def check_cv(out_dir: str) -> list:
    """No model failed and every reported mean score is finite."""
    problems = []
    failures = os.path.join(out_dir, "cv_failures.json")
    if os.path.exists(failures):
        with open(failures) as fh:
            problems.append(f"cv failures: {fh.read().strip()}")
    for name in ("cv_within.csv", "cv_out_of_site.csv"):
        for r in read_rows(os.path.join(out_dir, name)):
            if not math.isfinite(float(r["mean_bits"])):
                problems.append(f"{name}: {r['model']} has mean bits {r['mean_bits']}")
    return problems


def oos_bits(out_dir: str, model: str = "LGM-FULL") -> float:
    for r in read_rows(os.path.join(out_dir, "cv_out_of_site.csv")):
        if r["model"] == model:
            return float(r["mean_bits"])
    raise KeyError(model)


def read_theta_draws(path: str, n_chains: int) -> np.ndarray:
    """Kept theta draws as (chains, draws per chain, d), chain-major rows."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data.reshape(n_chains, -1, data.shape[1])


def ess(chains: np.ndarray) -> np.ndarray:
    """Split-chain effective sample size per coordinate, on the log scale.

    Gelman et al., Bayesian Data Analysis (3rd ed.), section 11.5: each chain
    is split in half, autocorrelations are combined through the between- and
    within-chain variances, and Geyer's initial monotone sequence truncates
    the sum.  Chains that disagree inflate the variance estimate and so lower
    the ESS, which the program's own estimator does not do.
    """
    x = np.log(chains)
    m, n, d = x.shape
    half = n // 2
    x = np.concatenate([x[:, :half], x[:, half:2 * half]], axis=0)
    m, n = 2 * m, half
    out = np.empty(d)
    for j in range(d):
        c = x[:, :, j] - x[:, :, j].mean(axis=1, keepdims=True)
        f = np.fft.rfft(c, n=2 * n, axis=1)
        acov = np.fft.irfft(f * np.conj(f), axis=1)[:, :n] / n
        w = acov[:, 0].mean() * n / (n - 1)
        var_plus = w * (n - 1) / n + x[:, :, j].mean(axis=1).var(ddof=1)
        if var_plus <= 0.0:
            out[j] = m * n
            continue
        rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
        rho[0] = 1.0
        tau, prev = -1.0, math.inf
        for k in range(0, n - 1, 2):
            pair = rho[k] + rho[k + 1]
            if pair <= 0.0:
                break
            pair = min(pair, prev)
            tau += 2.0 * pair
            prev = pair
        out[j] = m * n / max(tau, 1.0 / math.log10(m * n))
    return out


def dense_marginal_logpdf(st, theta: np.ndarray) -> float:
    """Log marginal density of eta_hat by brute force: N(0, D + Z Qnu^-1 Z').

    The density of tests/test_latent.py::_dense_marginal_logpdf, built from
    the structure's public fields.  Z Qnu^-1 Z' is formed as W'W with
    W = L^-1 Z' (Qnu = L L'), and the density through a Cholesky factor of
    the covariance: at long field ranges Qnu has condition numbers near 1e13,
    where an explicit inverse of Qnu costs about 3e-6 in the log density.
    """
    J, q = st.n_sites, st.n_params
    sig2 = st.sigma_eps2_by_param(theta)
    D = np.zeros((q * J, q * J))
    cov_blocks = np.linalg.inv(st.prec_blocks)
    for i in range(J):
        idx = np.arange(q) * J + i
        D[np.ix_(idx, idx)] = cov_blocks[i] + np.diag(sig2)
    Qnu = st.q_nu(theta).toarray()
    L = linalg.cholesky(Qnu, lower=True)
    W = linalg.solve_triangular(L, st.Z.toarray().T, lower=True)
    C = linalg.cholesky(D + W.T @ W, lower=True)
    z = linalg.solve_triangular(C, st.eta_hat, lower=True)
    logpdf = -0.5 * (z.size * math.log(2.0 * math.pi) + z @ z) - np.log(np.diag(C)).sum()
    return float(logpdf)


def qnu_condition(st, theta: np.ndarray) -> float:
    """Condition number of Qnu at theta; inf when Qnu is numerically singular."""
    eig = np.linalg.eigvalsh(st.q_nu(theta).toarray())
    return float(eig[-1] / eig[0]) if eig[0] > eig[-1] * np.finfo(float).eps else math.inf


def oracle_rows(st, theta: np.ndarray, n: int) -> np.ndarray:
    """The n distinct kept draws with the best-conditioned Qnu.

    At long field ranges Qnu is numerically singular (condition numbers
    beyond 1e16 were seen on unmixed chains): there no double-precision
    route, the oracle's included, gets the log density right to any digit,
    so a comparison would test rounding, not the implementation.
    """
    rows = np.unique(theta, axis=0)
    conds = np.array([qnu_condition(st, row) for row in rows])
    return rows[np.argsort(conds, kind="stable")[:n]]


def check_oracle(structure, theta_rows: np.ndarray, marginal_loglik) -> list:
    """marginal_loglik agrees with the dense oracle at each theta row."""
    problems = []
    for theta in theta_rows:
        cond = qnu_condition(structure, theta)
        if not math.isfinite(cond):
            problems.append(f"Qnu is numerically singular at theta {theta.tolist()}")
            continue
        got = marginal_loglik(structure, theta)
        ref = dense_marginal_logpdf(structure, theta)
        tol = ORACLE_ABS_TOL + ORACLE_REL_TOL * abs(ref) + ORACLE_COND_TOL * cond
        if not abs(got - ref) <= tol:
            problems.append(f"marginal_loglik {got!r} vs dense oracle {ref!r} "
                            f"(tolerance {tol:.2g}) at theta {theta.tolist()}")
    return problems
