"""Synthetic data generation for testing and benchmarking.

Draws site locations on a square, latent Gaussian fields on a triangulation
of those sites, regression effects from named covariates, and block maxima
from the resulting site-level extreme value parameters.  The default
scenario mirrors the scale of a national annual-maximum flow dataset:
60 stations, roughly 50-year records, four candidate covariates of which
two carry real signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gev
from .dataio import MaximaDataset
from .errors import ConfigError
from .spde import Mesh, build_mesh, fem_matrices, precision_matrix, sample_field

__all__ = ["Scenario", "SimTruth", "SimulatedData", "simulate_dataset", "paper_like_scenario"]


@dataclass
class Scenario:
    """Generative settings for one synthetic dataset."""

    n_sites: int = 60
    domain_size: float = 100.0  # side of the square holding the sites
    n_covariates: int = 4
    # intercept followed by one coefficient per covariate
    beta_psi: tuple = (3.4, 0.40, -0.25, 0.0, 0.0)
    beta_tau: tuple = (-1.0, 0.15, 0.0, 0.0, 0.0)
    xi_center: float = 0.12
    eps_phi: float = 0.03  # iid spread of the transformed shape across sites
    # spatial field scales on the log-location and log-ratio parameters
    s_psi: float = 0.311
    eps_psi: float = 0.247
    s_tau: float = 0.182
    eps_tau: float = 0.133
    range_fraction: float = 0.3  # field range as a fraction of the site diameter
    trend: bool = False
    delta_center: float = 0.0015
    delta_sd: float = 0.001
    years_end: int = 2013
    record_length: int | None = 50  # None draws lengths uniformly
    record_length_range: tuple = (30, 80)

    def __post_init__(self):
        bounds = self.record_length_range
        for ok, message in (
            (self.n_covariates >= 0, "n_covariates must not be negative"),
            (len(self.beta_psi) == len(self.beta_tau) == self.n_covariates + 1,
             "beta_psi and beta_tau must have one intercept plus one coefficient "
             "per covariate"),
            (self.domain_size > 0 and self.range_fraction > 0,
             "domain_size and range_fraction must be positive"),
            (gev.XI_LO < self.xi_center < gev.XI_HI,
             f"xi_center must lie inside ({gev.XI_LO}, {gev.XI_HI})"),
            (self.record_length is None or self.record_length >= 1,
             "record_length must be at least 1"),
            (len(bounds) == 2 and all(float(b).is_integer() for b in bounds)
             and 1 <= bounds[0] <= bounds[1],
             "record_length_range must be two whole numbers 1 <= shortest <= longest"),
        ):
            if not ok:
                raise ConfigError(message)


def paper_like_scenario(trend: bool = False) -> Scenario:
    """A fixed 60-site scenario sized like the UK annual-maxima analysis.

    Every station has a 50-year record ending in 2013 and the site shapes
    centre on xi = 0.06.  The link parameters are (psi, tau, phi);
    trend=True adds the trend parameter gamma.
    """
    return Scenario(trend=trend, xi_center=0.06)


@dataclass
class SimTruth:
    """Everything the generator drew, for checking recovery."""

    eta: np.ndarray  # (q, J) latent values per parameter per site
    param_names: tuple
    beta: dict  # name -> coefficient vector (intercept first)
    u: dict  # name -> node values of the spatial field
    theta: dict  # name -> dict with s, rho, eps as used
    mesh: Mesh
    rho: float

    def natural(self, i: int) -> gev.GevParams:
        """GEV parameters at site i on the natural scale."""
        idx = {nm: k for k, nm in enumerate(self.param_names)}
        lp = gev.LinkedParams(
            psi=self.eta[idx["psi"], i],
            tau=self.eta[idx["tau"], i],
            phi=self.eta[idx["phi"], i],
            gamma=self.eta[idx["gamma"], i] if "gamma" in idx else 0.0,
        )
        return gev.link_inverse(lp)


@dataclass
class SimulatedData:
    dataset: MaximaDataset
    truth: SimTruth


def _draw_sites(scn: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Uniform sites with a minimum separation so the mesh stays sane."""
    min_sep = 0.02 * scn.domain_size
    pts = []
    attempts = 0
    while len(pts) < scn.n_sites and attempts < 200 * scn.n_sites:
        cand = rng.uniform(0.0, scn.domain_size, size=2)
        attempts += 1
        if all(np.hypot(*(cand - p)) >= min_sep for p in pts):
            pts.append(cand)
    if len(pts) < scn.n_sites:
        raise ConfigError("could not place sites with the requested separation")
    return np.asarray(pts)


def simulate_dataset(scn: Scenario | None = None, seed: int = 0) -> SimulatedData:
    scn = scn or Scenario()
    rng = np.random.default_rng(seed)

    sites = _draw_sites(scn, rng)
    mesh = build_mesh(sites)
    C, G = fem_matrices(mesh)
    rho = scn.range_fraction * mesh.diameter

    covariates = rng.normal(size=(scn.n_sites, scn.n_covariates))
    covariate_names = [f"c{j + 1}" for j in range(scn.n_covariates)]
    X = np.column_stack([np.ones(scn.n_sites), covariates])

    # sites are the leading mesh nodes, so the field at the sites is a slice
    u = {}
    fields = {}
    for name, s in (("psi", scn.s_psi), ("tau", scn.s_tau)):
        if s > 0:
            Q = precision_matrix(C, G, rho=rho, s=s)
            u_nodes = sample_field(Q, rng)
            u[name] = u_nodes
            fields[name] = u_nodes[: scn.n_sites]
        else:
            u[name] = np.zeros(mesh.n_nodes)
            fields[name] = np.zeros(scn.n_sites)

    beta_psi = np.asarray(scn.beta_psi, dtype=float)
    beta_tau = np.asarray(scn.beta_tau, dtype=float)
    psi = X @ beta_psi + fields["psi"] + scn.eps_psi * rng.normal(size=scn.n_sites)
    tau = X @ beta_tau + fields["tau"] + scn.eps_tau * rng.normal(size=scn.n_sites)
    phi_center = gev.shape_forward(scn.xi_center)
    phi = phi_center + scn.eps_phi * rng.normal(size=scn.n_sites)

    param_names = ["psi", "tau", "phi"]
    rows = [psi, tau, phi]
    if scn.trend:
        lim = 0.75 * gev.LINK.delta0
        delta = np.clip(
            scn.delta_center + scn.delta_sd * rng.normal(size=scn.n_sites), -lim, lim
        )
        rows.append(gev.trend_forward(delta))
        param_names.append("gamma")
    eta = np.vstack(rows)

    records = []
    station_ids = [f"s{i + 1:03d}" for i in range(scn.n_sites)]
    truth = SimTruth(
        eta=eta,
        param_names=tuple(param_names),
        beta={"psi": beta_psi, "tau": beta_tau},
        u=u,
        theta={
            "psi": {"s": scn.s_psi, "rho": rho, "eps": scn.eps_psi},
            "tau": {"s": scn.s_tau, "rho": rho, "eps": scn.eps_tau},
            "phi": {"eps": scn.eps_phi},
        },
        mesh=mesh,
        rho=rho,
    )
    for i in range(scn.n_sites):
        if scn.record_length is not None:
            n_i = scn.record_length
        else:
            lo, hi = scn.record_length_range
            n_i = int(rng.integers(lo, hi + 1))
        years = np.arange(scn.years_end - n_i + 1, scn.years_end + 1, dtype=float)
        p = truth.natural(i)
        y = gev.gev_sample(p, years, n_i, rng)
        records.append((years, y))

    dataset = MaximaDataset(
        station_ids=station_ids,
        sites=sites,
        records=records,
        covariates=covariates,
        covariate_names=covariate_names,
    )
    return SimulatedData(dataset=dataset, truth=truth)
