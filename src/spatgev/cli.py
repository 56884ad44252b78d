"""Command line interface tying the pipeline together.

Subcommands: simulate, fit-sites, select, fit, predict, return-levels, cv,
aggregate.  Every command reads a JSON run configuration, writes delimited
text, JSON or .npy artifacts into --out, and finishes with a manifest
recording the config hash, seed, package version, and a content hash per
artifact.  Reruns with the same inputs are byte-identical except the manifest
timestamp.  Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.

The run configuration is one tree, declared once: the fields of RunConfig
are the top-level keys (seed, trend, t0, covariates, tau_covariates,
transform_descriptors, return_periods) and the sections scenario, spatial,
mesh, priors, mcmc, selection, cv, predict, aggregate and files, each a
dataclass whose fields are its keys and defaults.  main builds the whole
tree once per command, before any work, with RunConfig.from_json: an
unknown key at any level, or a value, list element or number that is not of
its declared type, exits 2 naming the key's dotted path.  The loader is the
one place that applies the two run-level defaults: a section's seed takes the
run's seed, and aggregate.periods takes return_periods, unless given.  Then
every section's validate runs, and a value out of range (a negative seed
among them) exits 2 as well.  Commands read attributes of the tree, and
RunConfig.anchor is the one place where an absent t0 becomes the link's
anchor year.  select, fit and cv share priors and mesh: their
latent structures take the one priors section, and their fields live on a
mesh built with the one mesh section.

A fit directory is the whole fit.  Besides the draws (theta_draws.csv, and
the latent eta_draws.npy and nu_draws.npy: float64 arrays of one row per
kept draw in NumPy's binary format), their summaries (theta_summary.csv,
latent_summary.csv) and model.json, fit writes max_step.csv: per station the
link-space mode, the full q x q precision block (repr floats, so they read
back bit for bit) and the fit's loglik, n_obs, converged, hessian_repaired
and n_restarts.  fit also writes mesh.json, the triangulation its fields live
on (compact JSON with repr floats, null for a model without fields).
predict, return-levels and aggregate read back the fitted posterior
(latent.SmoothResult): the latent structure from those two files, the draws
from theta_draws.csv and the .npy files, and the trend's anchor from
model.json's t0.  They never rerun the max step, build no mesh and import no
scipy module; the sampler's report (theta_summary.csv, and model.json's
acceptance, status and warnings) is for the reader.  Every one of these files
must match its sha256 in manifest.json; a missing manifest, file or entry, or
a mismatch, is refused with a data error, and so is a mesh whose leading
nodes are not the input's site coordinates.

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
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__, gev
from .copula import aggregate_return_levels, grow_samples, historical_block
from .dataio import (
    DescriptorTransform,
    MaximaDataset,
    check_finite,
    group_maxima,
    read_descriptors_csv,
    read_maxima_csv,
    validate_descriptors,
    write_csv_atomic,
    write_json_atomic,
    write_maxima_csv,
    write_npy_atomic,
)
from .errors import ConfigError, DataError, NumericalError
from .evaluate import CvConfig, make_cv_plan, run_cv
from .latent import McmcConfig, Priors, SmoothResult, build_structure, smooth_step
from .predict import UngaugedSite, posterior_predictive, return_level, ungauged_return_level
from .selection import SelectionConfig, select_all
from .simulate import Scenario, simulate_dataset
from .site_fit import PARAM_NAMES, SiteFit, StackedFits, fit_all_sites, stack_fits
from .spde import Mesh, MeshOptions, build_mesh

_EXIT_CODES = {ConfigError: 2, DataError: 3, NumericalError: 4}
MAX_STEP_FILE = "max_step.csv"
MESH_FILE = "mesh.json"
# fit files that queries check against manifest.json; they read all but theta_summary.csv
FIT_FILES = ("model.json", MAX_STEP_FILE, MESH_FILE, "theta_draws.csv",
             "theta_summary.csv", "eta_draws.npy", "nu_draws.npy")


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


RETURN_PERIODS = (10.0, 50.0, 100.0)  # years; the default of return_periods


# the config sections that no library class declares
@dataclass
class SpatialConfig:  # the link parameters that get a field
    psi: bool = False
    tau: bool = False
    phi: bool = False
    gamma: bool = False


@dataclass
class PredictConfig:  # aggregate reads year too
    year: float | None = None  # None: the levels at the trend's t0
    stations: list[str] | None = None  # None: every station
    include_nugget: bool = True  # ungauged draws add the nugget


@dataclass
class AggregateConfig:
    stations: list[str] | None = None  # None: every station
    weights: tuple | None = None  # one per station; None: all 1
    year_range: tuple | None = None  # first and last year; None: all years
    periods: tuple = RETURN_PERIODS  # the loader sets return_periods unless given
    n_blocks: int = 200
    pool_size: int = 20_000  # predictive samples per station
    n_bootstrap: int = 500

    def validate(self) -> None:
        if self.n_bootstrap < 1:
            raise ValueError("n_bootstrap must be at least 1")


@dataclass
class FilesConfig:  # the command line options of the same names override these
    maxima: str | None = None
    sites: str | None = None
    targets: str | None = None


@dataclass
class RunConfig:
    """The run configuration: the top-level settings, then one section each.

    from_json is the one loader; raw keeps the JSON object as given, which
    config_hash hashes and model.json records.
    """

    seed: int = 0
    trend: bool = False
    t0: float = None  # absent: the link's anchor year (see anchor); null is refused
    covariates: list[str] = field(default_factory=list)  # psi's design
    tau_covariates: list[str] = field(default_factory=list)
    transform_descriptors: bool = True  # false when columns are ready-made designs
    return_periods: tuple = RETURN_PERIODS
    scenario: Scenario = field(default_factory=Scenario)
    spatial: SpatialConfig = field(default_factory=SpatialConfig)
    mesh: MeshOptions = field(default_factory=MeshOptions)
    priors: Priors = field(default_factory=Priors)
    mcmc: McmcConfig = field(default_factory=McmcConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    cv: CvConfig = field(default_factory=CvConfig)
    predict: PredictConfig = field(default_factory=PredictConfig)
    aggregate: AggregateConfig = field(default_factory=AggregateConfig)
    files: FilesConfig = field(default_factory=FilesConfig)
    raw: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_json(cls, path_or_str: str) -> "RunConfig":
        """The configuration in a JSON file, or in a JSON string.

        Every key and value is checked, and every section built, before
        the run-level defaults: a section's seed takes the run's seed, and
        its periods (aggregate's) take return_periods, unless given.  Then
        each section's validate runs; a ValueError there is a ConfigError.
        """
        if os.path.exists(path_or_str):
            with open(path_or_str) as fh:
                path_or_str = fh.read()
        try:
            data = json.loads(path_or_str)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _build(cls, data, "")
        cfg.raw = data
        if cfg.seed < 0:
            raise ConfigError(f"config key 'seed' must not be negative, got {cfg.seed}")
        run_level = {"seed": cfg.seed, "periods": cfg.return_periods}
        for name, section in list(vars(cfg).items()):
            if not is_dataclass(section):
                continue
            given = data.get(name, {})
            section = replace(section, **{k: v for k, v in run_level.items()
                                          if hasattr(section, k) and k not in given})
            try:
                getattr(section, "validate", lambda: None)()
            except ValueError as exc:
                raise ConfigError(f"config key {name!r}: {exc}") from exc
            setattr(cfg, name, section)
        return cfg

    @property
    def anchor(self) -> float:
        """The year the trend is anchored at: t0, or the link's t0 if absent."""
        return gev.LINK.t0 if self.t0 is None else self.t0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _matches(value, hint) -> bool:
    """Whether the JSON value has the declared type: a bool is not a number,
    an int is also a float, and a list of numbers stands for a tuple."""
    if hint is float:
        return _is_number(value)
    if hint is int:
        return _is_number(value) and isinstance(value, int)
    if hint is tuple:
        return isinstance(value, list) and all(map(_is_number, value))
    if typing.get_origin(hint) is list:
        (element,) = typing.get_args(hint)
        return isinstance(value, list) and all(_matches(v, element) for v in value)
    if typing.get_args(hint):  # a union
        return any(_matches(value, kind) for kind in typing.get_args(hint))
    return isinstance(value, hint)


def _describe(hint) -> str:
    if typing.get_origin(hint) is list:
        return f"a list of {_describe(typing.get_args(hint)[0])}"
    if typing.get_args(hint):
        return " or ".join(map(_describe, typing.get_args(hint)))
    return {type(None): "null", tuple: "a list of numbers"}.get(hint, hint.__name__)


def _build(cls, values, path: str):
    """cls built from the JSON object values found at the dotted path.

    An unknown key, or a value not of its field's declared type, is a
    ConfigError naming its dotted path.  A field declared as a dataclass is
    built from its own object, and a list of numbers becomes a tuple.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"config key {path!r} must be an object, got {values!r}")
    hints = typing.get_type_hints(cls)
    declared = {f.name for f in fields(cls) if f.init}
    keys = {name: f"{path}.{name}" if path else name for name in values}
    unknown = sorted(key for name, key in keys.items() if name not in declared)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    built = {}
    for name, value in values.items():
        hint = hints[name]
        if is_dataclass(hint):
            built[name] = _build(hint, value, keys[name])
            continue
        if not _matches(value, hint):
            raise ConfigError(f"config key {keys[name]!r} must be {_describe(hint)}, "
                              f"got {value!r}")
        wants_tuple = hint is tuple or tuple in typing.get_args(hint)
        built[name] = tuple(value) if wants_tuple and isinstance(value, list) else value
    try:
        return cls(**built)
    except ValueError as exc:  # a section's own checks, as in from_json
        raise ConfigError(f"config key {path!r}: {exc}") from exc


def config_hash(cfg: RunConfig) -> str:
    """Stable hash of the JSON configuration as given, for run manifests."""
    blob = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


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
    return getattr(args, key, None) or getattr(cfg.files, key)


def _station_table(path: str):
    """(ids, values, lower-case names, descriptor names, descriptor columns)."""
    ids, names, values = read_descriptors_csv(path)
    lower = [n.lower() for n in names]
    if "x" not in lower or "y" not in lower:
        raise DataError(f"{path}: needs coordinate columns x and y")
    desc_cols = [k for k, n in enumerate(lower) if n not in ("x", "y", "pooling_ok")]
    return ids, values, lower, [names[k] for k in desc_cols], desc_cols


def _load_inputs(cfg: RunConfig, args):
    """Read maxima plus the station table; returns (dataset, transform)."""
    maxima = _file_from(cfg, args, "maxima")
    if maxima is None:
        raise ConfigError("no maxima file (use --maxima or files.maxima)")
    rows = read_maxima_csv(maxima)
    sites_path = _file_from(cfg, args, "sites")
    if sites_path is None:
        return group_maxima(rows), None

    ids, values, lower, dnames, desc_cols = _station_table(sites_path)
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

    transform = None
    if desc_cols:
        row_of = {st: k for k, st in enumerate(ids)}
        vals = values[[row_of[st] for st in ds.station_ids]][:, desc_cols]
        if cfg.transform_descriptors:
            validate_descriptors(dnames, vals)
            transform = DescriptorTransform.fit(dnames, vals)
            ds.covariates = transform.apply(dnames, vals)
        else:
            check_finite(dnames, vals)
            ds.covariates = vals
        ds.covariate_names = dnames
    return ds, transform


def _max_step(cfg: RunConfig, ds: MaximaDataset) -> StackedFits:
    return fit_all_sites(ds.records, trend=cfg.trend, station_ids=ds.station_ids,
                         t0=cfg.anchor)


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------


def cmd_simulate(args, cfg: RunConfig) -> int:
    sim = simulate_dataset(cfg.scenario, seed=cfg.seed)
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


def cmd_fit_sites(args, cfg: RunConfig) -> int:
    ds, _ = _load_inputs(cfg, args)
    trend = cfg.trend
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


def cmd_select(args, cfg: RunConfig) -> int:
    ds, _ = _load_inputs(cfg, args)
    if ds.covariates is None or not ds.covariate_names:
        raise ConfigError("selection needs a station table with covariates")
    _progress(f"fitting {ds.n_sites} sites")
    stacked = _max_step(cfg, ds)
    mesh = build_mesh(ds.sites, cfg.mesh)
    covariates = {nm: ds.covariates[:, j] for j, nm in enumerate(ds.covariate_names)}
    _progress("forward selection per parameter")
    results = select_all(stacked, covariates, mesh=mesh, sites=ds.sites,
                         config=cfg.selection, priors=cfg.priors)

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


def _structure_from(cfg: RunConfig, ds: MaximaDataset, stacked: StackedFits,
                    mesh: Mesh | None):
    names = {"psi": tuple(cfg.covariates), "tau": tuple(cfg.tau_covariates)}
    return build_structure(
        stacked, {p: ds.design_matrix(n) for p, n in names.items() if n},
        vars(cfg.spatial), sites=ds.sites, mesh=mesh, priors=cfg.priors,
        covariate_names=names,
    )


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


def cmd_fit(args, cfg: RunConfig) -> int:
    ds, transform = _load_inputs(cfg, args)
    _progress(f"max step: fitting {ds.n_sites} sites")
    stacked = _max_step(cfg, ds)
    mesh = build_mesh(ds.sites, cfg.mesh) if any(vars(cfg.spatial).values()) else None
    structure = _structure_from(cfg, ds, stacked, mesh)
    mcmc = cfg.mcmc
    _progress(f"smooth step: {mcmc.n_chains} chains x {mcmc.n_iterations} iterations")
    theta, result = smooth_step(structure, mcmc, latent_seed=mcmc.seed + 1, t0=cfg.anchor)
    if theta.status != "ok":
        for w in theta.warnings:
            _progress(f"warning: {w}")

    outputs = []

    max_step_path = _out_path(args, MAX_STEP_FILE)
    _write_max_step(max_step_path, ds.station_ids, stacked)
    outputs.append((MAX_STEP_FILE, max_step_path))

    path = _out_path(args, MESH_FILE)
    write_json_atomic(path, None if mesh is None else mesh.to_dict(), compact=True)
    outputs.append((MESH_FILE, path))

    path = _out_path(args, "theta_draws.csv")
    write_csv_atomic(path, structure.theta_names,
                     [[_fmt(v) for v in row] for row in theta.draws])
    outputs.append(("theta_draws.csv", path))

    path = _out_path(args, "theta_summary.csv")
    write_csv_atomic(path, ["name", "mean", "sd", "rhat", "ess"], [
        [nm, _fmt(theta.draws[:, k].mean()), _fmt(theta.draws[:, k].std(ddof=1)),
         _fmt(theta.rhat[k]), _fmt(theta.ess[k])]
        for k, nm in enumerate(structure.theta_names)
    ])
    outputs.append(("theta_summary.csv", path))

    for name, draws in (("eta_draws.npy", result.eta_draws),
                        ("nu_draws.npy", result.nu_draws)):
        path = _out_path(args, name)
        write_npy_atomic(path, draws)
        outputs.append((name, path))

    params = [pm.name for pm in structure.params]
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
        "covariates": cfg.covariates,
        "tau_covariates": cfg.tau_covariates,
        "spatial": cfg.raw.get("spatial", {}),  # the sections as given
        "trend": cfg.trend,
        "t0": cfg.t0,
        "priors": cfg.raw.get("priors", {}),
        "mesh": cfg.raw.get("mesh", {}),
        "n_chains": mcmc.n_chains,
        "theta_names": structure.theta_names,
        "station_ids": list(ds.station_ids),
        "status": theta.status,
        "warnings": list(theta.warnings),
        "accept_rate": [float(a) for a in theta.accept_rate],
        "transform": None if transform is None else transform.to_dict(),
        "transform_descriptors": cfg.transform_descriptors,
    })
    outputs.append(("model.json", path))

    _write_manifest(args.out, "fit", cfg, outputs)
    return 0


def _read_draws_npy(path: str, n_draws: int) -> np.ndarray:
    """A float64 array of n_draws rows stored by np.save, or a DataError."""
    try:
        draws = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise DataError(f"{path}: not a stored draw array: {exc}") from exc
    if (not isinstance(draws, np.ndarray) or draws.dtype != np.float64
            or draws.ndim != 2 or draws.shape[0] != n_draws):
        got = (f"{draws.dtype} array of shape {draws.shape}"
               if isinstance(draws, np.ndarray) else type(draws).__name__)
        raise DataError(f"{path}: expected a 2-D float64 array of {n_draws} draws, "
                        f"got {got}")
    return draws


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


def _read_mesh(fit_dir: str, model: dict, ds: MaximaDataset) -> Mesh | None:
    """The fit's mesh, or None for a model without fields.

    Its leading nodes must be the input's site coordinates, bit for bit.
    """
    path = os.path.join(fit_dir, MESH_FILE)
    try:
        with open(path) as fh:
            stored = json.load(fh)
        mesh = None if stored is None else Mesh.from_dict(stored)
    except (ValueError, DataError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if (mesh is None) == any(model["spatial"].values()):
        raise DataError(f"{path}: does not match the fields of model.json")
    if mesh is not None and (mesh.n_sites != ds.n_sites
                             or not np.array_equal(mesh.points[:mesh.n_sites], ds.sites)):
        raise DataError(f"{path}: mesh sites differ from the input site coordinates")
    return mesh


def _load_fit(fit_dir: str, cfg: RunConfig, args):
    """The fitted posterior of a fit directory, with the input data.

    Every file in FIT_FILES is first checked against its sha256 in
    manifest.json.  A query then reads three things.  The structure:
    max_step.csv and mesh.json, under the model of model.json, whose station
    order and parameter count they must match; neither the max step nor the
    mesh is computed again.  The draws: theta_draws.csv, and eta_draws.npy
    and nu_draws.npy, read whole without pickles or a memory map, which must
    be 2-D float64 arrays with one row per theta draw (a directory with the
    older CSV draws is refused as missing them).  The trend anchor: t0 of
    model.json.  The sampler's report (theta_summary.csv, and the
    acceptance and status of model.json) is checked but not read.  The
    input data still supplies station coordinates, covariates and records.
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

    # the structure is the fitted model's, whatever the config gives for its priors
    fitted = replace(cfg, covariates=model["covariates"],
                     tau_covariates=model["tau_covariates"],
                     spatial=_build(SpatialConfig, model["spatial"], "spatial"),
                     priors=_build(Priors, model["priors"], "priors"), t0=model["t0"])
    structure = _structure_from(fitted, ds, _read_max_step(fit_dir, model),
                                _read_mesh(fit_dir, model, ds))

    path = os.path.join(fit_dir, "theta_draws.csv")
    with open(path, newline="") as fh:
        names = fh.readline().rstrip("\r\n").split(",")
    theta_draws = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if names != model["theta_names"]:
        raise DataError("theta draw columns do not match the fitted model")
    eta_draws, nu_draws = (_read_draws_npy(os.path.join(fit_dir, name), len(theta_draws))
                           for name in ("eta_draws.npy", "nu_draws.npy"))
    if eta_draws.shape[1] != structure.eta_hat.size:
        raise DataError("latent draw width does not match the model structure")
    if nu_draws.shape[1] != structure.n_nu:
        raise DataError("coefficient draw width does not match the model structure")
    result = SmoothResult(structure=structure, theta_draws=theta_draws,
                          eta_draws=eta_draws, nu_draws=nu_draws, t0=fitted.anchor)
    return result, ds, model


def _periods_from(cfg: RunConfig) -> list:
    if not cfg.return_periods:
        raise ConfigError("return_periods must not be empty")
    return [float(p) for p in cfg.return_periods]


def _write_levels(args, command: str, cfg: RunConfig, name: str, curves: list, year) -> int:
    """Write one row per period of each (station, curve), then the manifest."""
    rows = [[st, _fmt(period), "" if year is None else _fmt(year), _fmt(curve.mean[k]),
             _fmt(curve.lower[k]), _fmt(curve.upper[k])]
            for st, curve in curves for k, period in enumerate(curve.periods)]
    path = _out_path(args, name)
    write_csv_atomic(path, ["station", "period", "year", "mean", "lower", "upper"], rows)
    _write_manifest(args.out, command, cfg, [(name, path)])
    return 0


def cmd_predict(args, cfg: RunConfig) -> int:
    result, ds, _ = _load_fit(args.fit, cfg, args)
    opts = cfg.predict
    stations = opts.stations or list(ds.station_ids)
    periods = _periods_from(cfg)
    index = {st: i for i, st in enumerate(ds.station_ids)}

    curves = []
    for st in stations:
        if st not in index:
            raise ConfigError(f"unknown station {st!r}")
        curves.append((st, return_level(result, index[st], periods, year=opts.year)))
    return _write_levels(args, "predict", cfg, "return_levels.csv", curves, opts.year)


def cmd_return_levels(args, cfg: RunConfig) -> int:
    result, ds, model = _load_fit(args.fit, cfg, args)
    targets_path = _file_from(cfg, args, "targets")
    if targets_path is None:
        raise ConfigError("no targets file (use --targets or files.targets)")
    ids, values, lower, dnames, desc_cols = _station_table(targets_path)
    raw = values[:, desc_cols]
    if model.get("transform") is not None:
        transform = DescriptorTransform.from_dict(model["transform"])
        validate_descriptors(dnames, raw)
        covs = transform.apply(dnames, raw)
    else:
        check_finite(dnames, raw)
        covs = raw
    col_of = {nm: j for j, nm in enumerate(dnames)}

    def design_row(names_list, k):
        row = [1.0]
        for nm in names_list:
            if nm not in col_of:
                raise ConfigError(f"targets file lacks covariate {nm!r}")
            row.append(covs[k, col_of[nm]])
        return np.asarray(row)

    opts = cfg.predict
    periods = _periods_from(cfg)
    rng = np.random.default_rng(cfg.seed)

    curves = []
    for k, st in enumerate(ids):
        design_rows = {"psi": design_row(model["covariates"], k),
                       "tau": design_row(model["tau_covariates"], k),
                       "phi": np.array([1.0])}
        if model["trend"]:
            design_rows["gamma"] = np.array([1.0])
        site = UngaugedSite(
            coords=np.array([values[k, lower.index("x")], values[k, lower.index("y")]]),
            design_rows=design_rows,
        )
        curves.append((st, ungauged_return_level(result, site, periods, rng, year=opts.year,
                                                  include_nugget=opts.include_nugget)))
    return _write_levels(args, "return-levels", cfg, "ungauged_levels.csv", curves, opts.year)


def cmd_cv(args, cfg: RunConfig) -> int:
    ds, _ = _load_inputs(cfg, args)
    if not cfg.cv.variants:
        raise ConfigError("cv variant list is empty")
    plan = make_cv_plan(ds, cfg.cv)
    _progress(f"cross-validation: {len(cfg.cv.variants)} variants, "
              f"{plan.train_sites.size} training and "
              f"{plan.heldout_sites.size} held-out stations")
    res = run_cv(ds, plan, cfg.cv, covariate_names=cfg.covariates or None, mcmc=cfg.mcmc,
                 seed=cfg.seed, t0=cfg.anchor, priors=cfg.priors, mesh_options=cfg.mesh)

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


def cmd_aggregate(args, cfg: RunConfig) -> int:
    result, ds, _ = _load_fit(args.fit, cfg, args)
    opts = cfg.aggregate
    index = {st: i for i, st in enumerate(ds.station_ids)}
    stations = opts.stations or list(ds.station_ids)
    missing = [st for st in stations if st not in index]
    if missing:
        raise ConfigError(f"unknown stations in aggregate.stations: {missing}")
    station_indices = np.array([index[st] for st in stations])
    if opts.year_range is not None and len(opts.year_range) != 2:
        raise ConfigError("aggregate.year_range must hold a first and a last year")
    block = historical_block(ds, station_indices, year_range=opts.year_range)

    weights = np.ones(block.n_sites)
    if opts.weights is not None:
        if len(opts.weights) != len(stations):
            raise ConfigError("aggregate.weights must match aggregate.stations")
        w_of = dict(zip(station_indices, opts.weights))
        weights = np.array([float(w_of[i]) for i in block.station_indices])

    year = cfg.predict.year
    if not opts.periods:
        raise ConfigError("aggregate.periods must not be empty")

    _progress(f"aggregate: {block.n_sites} stations x {block.n_years} years, "
              f"{opts.n_blocks} blocks")
    rng_pool = np.random.default_rng(cfg.seed)
    n_per = max(1, -(-opts.pool_size // result.n_draws))
    pools = [posterior_predictive(result, int(i), rng_pool, year=year, n_per_draw=n_per)
             for i in block.station_indices]

    def sampler(rng):
        return np.vstack([pool[rng.integers(0, pool.size, size=block.n_years)]
                          for pool in pools])

    grown = grow_samples(block, sampler, n_blocks=opts.n_blocks, seed=cfg.seed + 1)
    curve = aggregate_return_levels(grown, weights, opts.periods,
                                    n_bootstrap=opts.n_bootstrap,
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
        "n_blocks": opts.n_blocks,
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
        return args.func(args, RunConfig.from_json(args.config or "{}"))
    except (ConfigError, DataError, NumericalError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
