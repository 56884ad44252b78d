"""Command line interface tying the pipeline together.

Subcommands: simulate, fit-sites, select, fit, predict, return-levels, cv,
aggregate.  Every command reads a JSON run configuration, writes delimited
text or JSON artifacts into --out, and finishes with a manifest recording
the config hash, seed, package version, and a content hash per artifact.
Reruns with the same inputs are byte-identical except the manifest
timestamp.  Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.

A fit directory is the whole fit.  Besides the draws (theta_draws.csv,
eta_draws.csv, nu_draws.csv), their summaries (theta_summary.csv,
latent_summary.csv) and model.json, fit writes max_step.csv: per station the
link-space mode, the full q x q precision block (repr floats, so they read
back bit for bit) and the fit's loglik, n_obs, converged, hessian_repaired
and n_restarts.  predict, return-levels and aggregate rebuild the latent
structure from that file and never rerun the max step.  Every file they read
from the fit directory must match its sha256 in manifest.json; a missing
manifest, file or entry, or a mismatch, is refused with a data error.

Where the work runs: fit, fit-sites, select and cv fit the stations of the
max step, run the MCMC chains and select covariates per link parameter in
forked worker processes, one per core the process may use, and the artifacts
are the same bytes as a serial run.  Limit the cores with the CPU affinity,
for example taskset -c 0 spatgev fit ... to run everything in one process.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, gev
from .copula import aggregate_return_levels, grow_samples, historical_block
from .dataio import (
    DescriptorTransform,
    MaximaDataset,
    RunConfig,
    config_hash,
    group_maxima,
    read_descriptors_csv,
    read_maxima_csv,
    validate_descriptors,
    write_csv_atomic,
    write_json_atomic,
    write_maxima_csv,
)
from .errors import ConfigError, DataError, NumericalError
from .evaluate import DEFAULT_VARIANTS, make_cv_plan, run_cv
from .latent import McmcConfig, SmoothResult, ThetaSamples, build_structure, smooth_step
from .predict import UngaugedSite, posterior_predictive, return_level, ungauged_return_level
from .selection import SelectionConfig, select_all
from .simulate import Scenario, simulate_dataset
from .site_fit import PARAM_NAMES, SiteFit, StackedFits, fit_all_sites, stack_fits
from .spde import MeshOptions, build_mesh

_EXIT_CODES = {ConfigError: 2, DataError: 3, NumericalError: 4}
MAX_STEP_FILE = "max_step.csv"
# files of a fit directory that queries read, each checked against manifest.json
FIT_FILES = ("model.json", MAX_STEP_FILE, "theta_draws.csv", "theta_summary.csv",
             "eta_draws.csv", "nu_draws.csv")


def _progress(msg: str) -> None:
    print(f"[spatgev] {msg}", file=sys.stderr, flush=True)


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        return RunConfig.from_json(args.config)
    return RunConfig.from_json("{}")


def _write_manifest(out_dir: str, command: str, cfg: RunConfig, outputs: list) -> None:
    manifest = {
        "command": command,
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": {name: _sha256(path) for name, path in outputs},
    }
    write_json_atomic(os.path.join(out_dir, "manifest.json"), manifest)


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _file_from(cfg: RunConfig, args, key: str) -> str | None:
    override = getattr(args, key.replace("-", "_"), None)
    if override:
        return override
    return cfg.get("files", {}).get(key)


def _load_inputs(cfg: RunConfig, args):
    """Read maxima plus the station table; returns (dataset, transform)."""
    maxima = _file_from(cfg, args, "maxima")
    if maxima is None:
        raise ConfigError("no maxima file (use --maxima or files.maxima)")
    rows = read_maxima_csv(maxima)
    sites_path = _file_from(cfg, args, "sites")
    if sites_path is None:
        return group_maxima(rows), None

    ids, names, values = read_descriptors_csv(sites_path)
    lower = [n.lower() for n in names]
    if "x" not in lower or "y" not in lower:
        raise DataError(f"{sites_path}: needs coordinate columns x and y")
    coords = {st: (values[k, lower.index("x")], values[k, lower.index("y")])
              for k, st in enumerate(ids)}
    ds = group_maxima(rows, sites_by_station=coords)

    if "pooling_ok" in lower:
        jp = lower.index("pooling_ok")
        ok = {st for k, st in enumerate(ids) if values[k, jp] != 0.0}
        keep = [i for i, st in enumerate(ds.station_ids) if st in ok]
        if len(keep) < ds.n_sites:
            _progress(f"dropping {ds.n_sites - len(keep)} stations with pooling_ok=0")
        ds = ds.subset(keep)

    desc_cols = [k for k, n in enumerate(lower) if n not in ("x", "y", "pooling_ok")]
    transform = None
    if desc_cols:
        dnames = [names[k] for k in desc_cols]
        row_of = {st: k for k, st in enumerate(ids)}
        vals = values[[row_of[st] for st in ds.station_ids]][:, desc_cols]
        if cfg.get("transform_descriptors", True):
            validate_descriptors(dnames, vals)
            transform = DescriptorTransform.fit(dnames, vals)
            ds.covariates = transform.apply(dnames, vals)
        else:
            ds.covariates = vals
        ds.covariate_names = dnames
    return ds, transform


def _max_step(cfg: RunConfig, ds: MaximaDataset) -> StackedFits:
    t0 = cfg.get("t0")
    return fit_all_sites(ds.records, trend=bool(cfg.get("trend", False)),
                         station_ids=ds.station_ids,
                         **({"t0": t0} if t0 is not None else {}))


def _designs_from_config(cfg: RunConfig, ds: MaximaDataset) -> dict:
    designs = {}
    psi_names = cfg.get("covariates", [])
    tau_names = cfg.get("tau_covariates", [])
    if psi_names:
        designs["psi"] = ds.design_matrix(psi_names)
    if tau_names:
        designs["tau"] = ds.design_matrix(tau_names)
    return designs


def _covariate_names_map(cfg: RunConfig) -> dict:
    return {
        "psi": tuple(cfg.get("covariates", [])),
        "tau": tuple(cfg.get("tau_covariates", [])),
    }


def _mesh_from_config(cfg: RunConfig, sites: np.ndarray):
    opts = MeshOptions(**cfg.get("mesh", {}))
    return build_mesh(sites, opts)


def _mcmc_from_config(cfg: RunConfig) -> McmcConfig:
    section = dict(cfg.get("mcmc", {}))
    section.setdefault("seed", cfg.seed)
    return McmcConfig(**section)


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    section = dict(cfg.get("scenario", {}))
    for key in ("beta_psi", "beta_tau", "record_length_range"):
        if key in section:
            section[key] = tuple(section[key])
    scn = Scenario(**section)
    sim = simulate_dataset(scn, seed=cfg.seed)
    ds, truth = sim.dataset, sim.truth

    maxima_path = _out_path(args, "maxima.csv")
    write_maxima_csv(maxima_path, ds)

    sites_path = _out_path(args, "sites.csv")
    header = ["station", "x", "y", *ds.covariate_names]
    rows = [
        [st, _fmt(ds.sites[i, 0]), _fmt(ds.sites[i, 1]),
         *(_fmt(v) for v in ds.covariates[i])]
        for i, st in enumerate(ds.station_ids)
    ]
    write_csv_atomic(sites_path, header, rows)

    truth_path = _out_path(args, "truth.json")
    write_json_atomic(truth_path, {
        "param_names": list(truth.param_names),
        "station_ids": list(ds.station_ids),
        "eta": truth.eta.tolist(),
        "beta": {k: v.tolist() for k, v in truth.beta.items()},
        "theta": truth.theta,
        "rho": truth.rho,
    })
    _write_manifest(args.out, "simulate", cfg, [
        ("maxima.csv", maxima_path),
        ("sites.csv", sites_path),
        ("truth.json", truth_path),
    ])
    return 0


def cmd_fit_sites(args) -> int:
    cfg = _load_config(args)
    ds, _ = _load_inputs(cfg, args)
    trend = bool(cfg.get("trend", False))
    stacked = _max_step(cfg, ds)
    params = list(PARAM_NAMES[: stacked.n_params])
    eta = stacked.eta_by_param  # (q, J)

    header = ["station", "n_years", *params, "mu", "sigma", "xi"]
    if trend:
        header.append("delta")
    rows = []
    for i, st in enumerate(ds.station_ids):
        lp = gev.LinkedParams(
            psi=eta[0, i], tau=eta[1, i], phi=eta[2, i],
            gamma=eta[3, i] if trend else 0.0,
        )
        nat = gev.link_inverse(lp)
        row = [st, str(ds.records[i][1].size), *(_fmt(eta[q, i]) for q in range(len(params))),
               _fmt(nat.mu), _fmt(nat.sigma), _fmt(nat.xi)]
        if trend:
            row.append(_fmt(nat.delta))
        rows.append(row)
    path = _out_path(args, "site_fits.csv")
    write_csv_atomic(path, header, rows)
    _write_manifest(args.out, "fit-sites", cfg, [("site_fits.csv", path)])
    return 0


def cmd_select(args) -> int:
    cfg = _load_config(args)
    ds, _ = _load_inputs(cfg, args)
    if ds.covariates is None or not ds.covariate_names:
        raise ConfigError("selection needs a station table with covariates")
    _progress(f"fitting {ds.n_sites} sites")
    stacked = _max_step(cfg, ds)
    mesh = _mesh_from_config(cfg, ds.sites)
    sel_section = dict(cfg.get("selection", {}))
    sel_section.setdefault("seed", cfg.seed)
    sel_cfg = SelectionConfig(**sel_section)
    covariates = {nm: ds.covariates[:, j] for j, nm in enumerate(ds.covariate_names)}
    _progress("forward selection per parameter")
    results = select_all(stacked, covariates, mesh=mesh, sites=ds.sites,
                         config=sel_cfg)

    table_rows = []
    summary = {}
    for name, res in results.items():
        for step, rec in enumerate(res.path):
            table_rows.append([name, str(step), rec.added or "(intercept)",
                               _fmt(rec.score)])
        summary[name] = {
            "chosen": list(res.chosen),
            "spatial": bool(res.spatial),
            "score": res.score,
            "score_no_spatial": res.score_no_spatial,
        }
    csv_path = _out_path(args, "selection.csv")
    write_csv_atomic(csv_path, ["parameter", "step", "added", "cv_score"], table_rows)
    json_path = _out_path(args, "selection.json")
    write_json_atomic(json_path, summary)
    _write_manifest(args.out, "select", cfg, [
        ("selection.csv", csv_path), ("selection.json", json_path),
    ])
    return 0


def _structure_from(cfg: RunConfig, ds: MaximaDataset, stacked: StackedFits):
    spatial = {k: bool(v) for k, v in cfg.get("spatial", {}).items()}
    mesh = _mesh_from_config(cfg, ds.sites) if any(spatial.values()) else None
    structure = build_structure(
        stacked, _designs_from_config(cfg, ds), spatial, sites=ds.sites,
        mesh=mesh, covariate_names=_covariate_names_map(cfg),
        **cfg.get("priors", {}),
    )
    return structure


def _max_step_header(q: int) -> list:
    params = PARAM_NAMES[:q]
    return ["station", *params, *(f"prec_{a}_{b}" for a in params for b in params),
            "loglik", "n_obs", "converged", "hessian_repaired", "n_restarts"]


def _write_max_step(path: str, station_ids: list, stacked: StackedFits) -> None:
    rows = [
        [st, *(_fmt(v) for v in f.eta_hat), *(_fmt(v) for v in f.precision.ravel()),
         _fmt(f.loglik), _fmt(f.n_obs), _fmt(int(f.converged)),
         _fmt(int(f.hessian_repaired)), _fmt(f.n_restarts)]
        for st, f in zip(station_ids, stacked.site_fits)
    ]
    write_csv_atomic(path, _max_step_header(stacked.n_params), rows)


def _read_max_step(fit_dir: str, model: dict) -> StackedFits:
    """Read max_step.csv back and check it against model.json."""
    path = os.path.join(fit_dir, MAX_STEP_FILE)
    q = 4 if model["trend"] else 3
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    if header != _max_step_header(q):
        raise DataError(f"{path}: columns do not match a model with {q} link parameters")
    if [row[0] for row in rows] != model["station_ids"]:
        raise DataError(f"{path}: stations differ from model.json")
    fits = []
    for lineno, row in enumerate(rows, start=2):
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} cells, expected {len(header)}")
            vals = [float(c) for c in row[1:q + q * q + 2]]
            n_obs, converged, repaired, n_restarts = (int(c) for c in row[q + q * q + 2:])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed row: {exc}") from exc
        fits.append(SiteFit(
            eta_hat=np.array(vals[:q]),
            precision=np.array(vals[q:q + q * q]).reshape(q, q),
            loglik=vals[-1], n_obs=n_obs, converged=bool(converged),
            hessian_repaired=bool(repaired), n_restarts=n_restarts,
        ))
    return stack_fits(fits)


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    ds, transform = _load_inputs(cfg, args)
    _progress(f"max step: fitting {ds.n_sites} sites")
    stacked = _max_step(cfg, ds)
    structure = _structure_from(cfg, ds, stacked)
    mcmc = _mcmc_from_config(cfg)
    _progress(f"smooth step: {mcmc.n_chains} chains x {mcmc.n_iterations} iterations")
    result = smooth_step(structure, mcmc, latent_seed=mcmc.seed + 1)
    theta = result.theta
    if theta.status != "ok":
        for w in theta.warnings:
            _progress(f"warning: {w}")

    outputs = []

    max_step_path = _out_path(args, MAX_STEP_FILE)
    _write_max_step(max_step_path, ds.station_ids, stacked)
    outputs.append((MAX_STEP_FILE, max_step_path))

    path = _out_path(args, "theta_draws.csv")
    write_csv_atomic(path, theta.names,
                     [[_fmt(v) for v in row] for row in theta.draws])
    outputs.append(("theta_draws.csv", path))

    path = _out_path(args, "theta_summary.csv")
    write_csv_atomic(path, ["name", "mean", "sd", "rhat", "ess"], [
        [nm, _fmt(theta.draws[:, k].mean()), _fmt(theta.draws[:, k].std(ddof=1)),
         _fmt(theta.rhat[k]), _fmt(theta.ess[k])]
        for k, nm in enumerate(theta.names)
    ])
    outputs.append(("theta_summary.csv", path))

    params = [pm.name for pm in structure.params]
    eta_header = [f"{pm}:{st}" for pm in params for st in ds.station_ids]
    path = _out_path(args, "eta_draws.csv")
    write_csv_atomic(path, eta_header,
                     [[_fmt(v) for v in row] for row in result.eta_draws])
    outputs.append(("eta_draws.csv", path))

    path = _out_path(args, "nu_draws.csv")
    nu_header = [f"nu_{k:04d}" for k in range(result.nu_draws.shape[1])]
    write_csv_atomic(path, nu_header,
                     [[_fmt(v) for v in row] for row in result.nu_draws])
    outputs.append(("nu_draws.csv", path))

    path = _out_path(args, "latent_summary.csv")
    rows = []
    for q, pm in enumerate(params):
        block = result.eta_draws[:, q * ds.n_sites:(q + 1) * ds.n_sites]
        for i, st in enumerate(ds.station_ids):
            rows.append([st, pm, _fmt(block[:, i].mean()),
                         _fmt(block[:, i].std(ddof=1))])
    write_csv_atomic(path, ["station", "parameter", "mean", "sd"], rows)
    outputs.append(("latent_summary.csv", path))

    path = _out_path(args, "model.json")
    write_json_atomic(path, {
        "covariates": list(cfg.get("covariates", [])),
        "tau_covariates": list(cfg.get("tau_covariates", [])),
        "spatial": {k: bool(v) for k, v in cfg.get("spatial", {}).items()},
        "trend": bool(cfg.get("trend", False)),
        "t0": cfg.get("t0"),
        "priors": cfg.get("priors", {}),
        "mesh": cfg.get("mesh", {}),
        "n_chains": mcmc.n_chains,
        "theta_names": theta.names,
        "station_ids": list(ds.station_ids),
        "status": theta.status,
        "warnings": list(theta.warnings),
        "accept_rate": [float(a) for a in theta.accept_rate],
        "transform": None if transform is None else transform.to_dict(),
        "transform_descriptors": bool(cfg.get("transform_descriptors", True)),
    })
    outputs.append(("model.json", path))

    _write_manifest(args.out, "fit", cfg, outputs)
    return 0


def _read_draws_csv(path: str):
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _check_fit_files(fit_dir: str) -> None:
    """Every file in FIT_FILES must exist and match its sha256 in manifest.json."""
    manifest_path = os.path.join(fit_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise DataError(f"{fit_dir}: not a fit directory (no manifest.json)")
    with open(manifest_path) as fh:
        recorded = json.load(fh).get("outputs", {})
    for name in FIT_FILES:
        path = os.path.join(fit_dir, name)
        if not os.path.exists(path):
            raise DataError(f"{path}: missing; refit to get a complete fit directory")
        if name not in recorded:
            raise DataError(f"{path}: not listed in manifest.json")
        if _sha256(path) != recorded[name]:
            raise DataError(f"{path}: sha256 does not match manifest.json")


def _load_fit(fit_dir: str, cfg: RunConfig, args):
    """Reassemble a SmoothResult from a fit directory plus the input data.

    The fit directory holds model.json, max_step.csv, theta_draws.csv,
    theta_summary.csv, eta_draws.csv and nu_draws.csv, each checked against
    its sha256 in manifest.json first.  The latent structure is rebuilt from
    max_step.csv, whose station order and parameter count must match
    model.json; the max step is not rerun.  The input data still supplies
    station coordinates, covariates and records.
    """
    _check_fit_files(fit_dir)
    with open(os.path.join(fit_dir, "model.json")) as fh:
        model = json.load(fh)

    ds, _ = _load_inputs(cfg, args)
    if list(ds.station_ids) != model["station_ids"]:
        raise DataError("station set does not match the fitted model")
    for key in ("covariates", "tau_covariates", "spatial", "trend", "t0"):
        if key in cfg.raw and cfg.raw[key] != model[key]:
            raise ConfigError(f"config {key!r}={cfg.raw[key]!r} disagrees with "
                              f"the fitted model ({model[key]!r})")

    sub = RunConfig(raw={**cfg.raw, **{k: model[k] for k in
                                       ("covariates", "tau_covariates", "spatial",
                                        "trend", "t0", "priors", "mesh")
                                       if model.get(k) is not None}})
    structure = _structure_from(sub, ds, _read_max_step(fit_dir, model))

    names, theta_draws = _read_draws_csv(os.path.join(fit_dir, "theta_draws.csv"))
    if names != model["theta_names"]:
        raise DataError("theta draw columns do not match the fitted model")
    summary = np.loadtxt(os.path.join(fit_dir, "theta_summary.csv"),
                         delimiter=",", skiprows=1,
                         usecols=(1, 2, 3, 4), ndmin=2)
    theta = ThetaSamples(
        draws=theta_draws, names=names,
        rhat=summary[:, 2], ess=summary[:, 3],
        accept_rate=np.asarray(model["accept_rate"]),
        status=model["status"], warnings=list(model["warnings"]),
        by_chain=theta_draws.reshape(model["n_chains"], -1, theta_draws.shape[1]),
    )
    _, eta_draws = _read_draws_csv(os.path.join(fit_dir, "eta_draws.csv"))
    _, nu_draws = _read_draws_csv(os.path.join(fit_dir, "nu_draws.csv"))
    if eta_draws.shape[1] != structure.eta_hat.size:
        raise DataError("latent draw width does not match the model structure")
    if nu_draws.shape[1] != structure.n_nu:
        raise DataError("coefficient draw width does not match the model structure")
    result = SmoothResult(structure=structure, theta=theta,
                          eta_draws=eta_draws, nu_draws=nu_draws)
    return result, ds, model


def _periods_from(cfg: RunConfig) -> list:
    periods = cfg.get("return_periods", [10.0, 50.0, 100.0])
    if not periods:
        raise ConfigError("return_periods must not be empty")
    return [float(p) for p in periods]


def cmd_predict(args) -> int:
    cfg = _load_config(args)
    result, ds, model = _load_fit(args.fit, cfg, args)
    section = cfg.get("predict", {})
    year = section.get("year")
    stations = section.get("stations") or list(ds.station_ids)
    periods = _periods_from(cfg)
    index = {st: i for i, st in enumerate(ds.station_ids)}

    rows = []
    for st in stations:
        if st not in index:
            raise ConfigError(f"unknown station {st!r}")
        curve = return_level(result, index[st], periods, year=year,
                             t0=model.get("t0"))
        for k, period in enumerate(curve.periods):
            rows.append([st, _fmt(period), "" if year is None else _fmt(year),
                         _fmt(curve.mean[k]), _fmt(curve.lower[k]),
                         _fmt(curve.upper[k])])
    path = _out_path(args, "return_levels.csv")
    write_csv_atomic(path, ["station", "period", "year", "mean", "lower", "upper"],
                     rows)
    _write_manifest(args.out, "predict", cfg, [("return_levels.csv", path)])
    return 0


def cmd_return_levels(args) -> int:
    cfg = _load_config(args)
    result, ds, model = _load_fit(args.fit, cfg, args)
    targets_path = _file_from(cfg, args, "targets")
    if targets_path is None:
        raise ConfigError("no targets file (use --targets or files.targets)")
    ids, names, values = read_descriptors_csv(targets_path)
    lower = [n.lower() for n in names]
    if "x" not in lower or "y" not in lower:
        raise DataError(f"{targets_path}: needs coordinate columns x and y")
    coord_cols = (lower.index("x"), lower.index("y"))

    desc_cols = [k for k, n in enumerate(lower) if n not in ("x", "y", "pooling_ok")]
    dnames = [names[k] for k in desc_cols]
    raw = values[:, desc_cols]
    if model.get("transform") is not None:
        transform = DescriptorTransform.from_dict(model["transform"])
        validate_descriptors(dnames, raw)
        covs = transform.apply(dnames, raw)
    else:
        covs = raw
    col_of = {nm: j for j, nm in enumerate(dnames)}

    def design_row(names_list, k):
        row = [1.0]
        for nm in names_list:
            if nm not in col_of:
                raise ConfigError(f"targets file lacks covariate {nm!r}")
            row.append(covs[k, col_of[nm]])
        return np.asarray(row)

    year = cfg.get("predict", {}).get("year")
    include_nugget = bool(cfg.get("predict", {}).get("include_nugget", True))
    periods = _periods_from(cfg)
    rng = np.random.default_rng(cfg.seed)

    rows = []
    for k, st in enumerate(ids):
        design_rows = {"psi": design_row(model["covariates"], k),
                       "tau": design_row(model["tau_covariates"], k),
                       "phi": np.array([1.0])}
        if model["trend"]:
            design_rows["gamma"] = np.array([1.0])
        site = UngaugedSite(
            coords=np.array([values[k, coord_cols[0]], values[k, coord_cols[1]]]),
            design_rows=design_rows,
        )
        curve = ungauged_return_level(result, site, periods, rng, year=year,
                                      t0=model.get("t0"),
                                      include_nugget=include_nugget)
        for j, period in enumerate(curve.periods):
            rows.append([st, _fmt(period), "" if year is None else _fmt(year),
                         _fmt(curve.mean[j]), _fmt(curve.lower[j]),
                         _fmt(curve.upper[j])])
    path = _out_path(args, "ungauged_levels.csv")
    write_csv_atomic(path, ["station", "period", "year", "mean", "lower", "upper"],
                     rows)
    _write_manifest(args.out, "return-levels", cfg, [("ungauged_levels.csv", path)])
    return 0


def cmd_cv(args) -> int:
    cfg = _load_config(args)
    ds, _ = _load_inputs(cfg, args)
    section = cfg.get("cv", {})
    if "variants" in section and not section["variants"]:
        raise ConfigError("cv variant list is empty")
    variants = tuple(section.get("variants", DEFAULT_VARIANTS))
    plan = make_cv_plan(
        ds,
        train_end_year=float(section.get("split_year", 2000.0)),
        test_end_year=float(section.get("complete_through", 2013.0)),
        n_heldout=int(section.get("n_heldout", 6)),
        min_start_year=float(section.get("min_start_year", 1980.0)),
        seed=int(section.get("seed", cfg.seed)),
        n_eff_time=section.get("n_eff_time"),
        n_eff_space=float(section.get("n_eff_space", 50.0)),
    )
    _progress(f"cross-validation: {len(variants)} variants, "
              f"{plan.train_sites.size} training and "
              f"{plan.heldout_sites.size} held-out stations")
    res = run_cv(
        ds, plan, variants=variants,
        covariate_names=cfg.get("covariates") or None,
        mcmc=_mcmc_from_config(cfg),
        n_samples=int(section.get("n_samples", 32_000)),
        n_samples_trend=int(section.get("n_samples_trend", 3_200)),
        seed=cfg.seed,
        t0=cfg.get("t0"),
    )

    outputs = []
    for name, table in (("cv_within.csv", res.within),
                        ("cv_out_of_site.csv", res.out_of_site)):
        path = _out_path(args, name)
        write_csv_atomic(path, ["model", "mean_bits", "n_scored", "n_excluded"], [
            [m, _fmt(table.mean[m]), str(table.n_scored[m]), str(table.n_excluded[m])]
            for m in table.models
        ])
        outputs.append((name, path))

        diff_name = name.replace(".csv", "_diff.csv")
        diff_path = _out_path(args, diff_name)
        diff_rows = []
        for a, ma in enumerate(table.models):
            for b, mb in enumerate(table.models):
                if a < b:
                    diff_rows.append([ma, mb, _fmt(table.diff[a, b]),
                                      _fmt(table.se[a, b])])
        write_csv_atomic(diff_path, ["model_a", "model_b", "mean_diff_bits", "se"],
                         diff_rows)
        outputs.append((diff_name, diff_path))

    if res.failures:
        path = _out_path(args, "cv_failures.json")
        write_json_atomic(path, res.failures)
        outputs.append(("cv_failures.json", path))
    _write_manifest(args.out, "cv", cfg, outputs)
    return 0


def cmd_aggregate(args) -> int:
    cfg = _load_config(args)
    result, ds, model = _load_fit(args.fit, cfg, args)
    section = cfg.get("aggregate", {})
    index = {st: i for i, st in enumerate(ds.station_ids)}
    stations = section.get("stations") or list(ds.station_ids)
    missing = [st for st in stations if st not in index]
    if missing:
        raise ConfigError(f"unknown stations in aggregate.stations: {missing}")
    station_indices = np.array([index[st] for st in stations])
    year_range = section.get("year_range")
    block = historical_block(ds, station_indices,
                             year_range=None if year_range is None
                             else (float(year_range[0]), float(year_range[1])))

    weights = section.get("weights")
    if weights is None:
        weights = np.ones(block.n_sites)
    else:
        if len(weights) != len(stations):
            raise ConfigError("aggregate.weights must match aggregate.stations")
        w_of = dict(zip(station_indices, weights))
        weights = np.array([float(w_of[i]) for i in block.station_indices])

    year = cfg.get("predict", {}).get("year")
    pool_size = int(section.get("pool_size", 20_000))
    n_blocks = int(section.get("n_blocks", 200))
    periods = [float(p) for p in section.get("periods", _periods_from(cfg))]

    _progress(f"aggregate: {block.n_sites} stations x {block.n_years} years, "
              f"{n_blocks} blocks")
    rng_pool = np.random.default_rng(cfg.seed)
    n_per = max(1, -(-pool_size // result.n_draws))
    pools = [posterior_predictive(result, int(i), rng_pool, year=year,
                                  n_per_draw=n_per, t0=model.get("t0"))
             for i in block.station_indices]

    def sampler(rng):
        return np.vstack([pool[rng.integers(0, pool.size, size=block.n_years)]
                          for pool in pools])

    grown = grow_samples(block, sampler, n_blocks=n_blocks, seed=cfg.seed + 1)
    curve = aggregate_return_levels(grown, weights, periods,
                                    n_bootstrap=int(section.get("n_bootstrap", 500)),
                                    seed=cfg.seed + 2)

    path = _out_path(args, "aggregate_levels.csv")
    write_csv_atomic(path, ["period", "level", "lower", "upper"], [
        [_fmt(p), _fmt(curve.level[k]), _fmt(curve.lower[k]), _fmt(curve.upper[k])]
        for k, p in enumerate(curve.periods)
    ])
    meta_path = _out_path(args, "aggregate_meta.json")
    write_json_atomic(meta_path, {
        "stations": [ds.station_ids[i] for i in block.station_indices],
        "years": [block.years[0], block.years[-1]],
        "n_blocks": n_blocks,
        "n_ties": block.n_ties,
        "tie_rule": block.tie_rule,
    })
    _write_manifest(args.out, "aggregate", cfg, [
        ("aggregate_levels.csv", path), ("aggregate_meta.json", meta_path),
    ])
    return 0


# ----------------------------------------------------------------------------
# Parser and entry point
# ----------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatgev",
        description="Bayesian spatial extreme value analysis of block maxima",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_data=False, needs_fit=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory")
        if needs_data:
            p.add_argument("--maxima", help="long-form station,year,amax file")
            p.add_argument("--sites", help="station table with x,y and descriptors")
        if needs_fit:
            p.add_argument("--fit", required=True,
                           help="directory written by the fit command")
        p.set_defaults(func=func)
        return p

    add("simulate", cmd_simulate, "generate a synthetic dataset")
    add("fit-sites", cmd_fit_sites, "per-site generalized ML fits",
        needs_data=True)
    add("select", cmd_select, "cross-validated forward covariate selection",
        needs_data=True)
    add("fit", cmd_fit, "two-step posterior: site fits then hyperparameter MCMC",
        needs_data=True)
    add("predict", cmd_predict, "return levels at fitted stations",
        needs_data=True, needs_fit=True)
    p = add("return-levels", cmd_return_levels, "return levels at new locations",
            needs_data=True, needs_fit=True)
    p.add_argument("--targets", help="station table of prediction locations")
    add("cv", cmd_cv, "log-score cross-validation against benchmarks",
        needs_data=True)
    add("aggregate", cmd_aggregate, "rank-reordered aggregate return levels",
        needs_data=True, needs_fit=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, NumericalError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
