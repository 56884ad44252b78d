"""Seeded end-to-end benchmark of the spatgev command line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload paper60 --seed 1 --seconds 54 --trace 0

Set-up generates the inputs with ``spatgev simulate`` (three times, so the
set-up time is a median).  The workload's commands then run one after
another, each in a fresh child process (a closed loop with one client), and
repeat while they fit in ``--seconds``; each command's time is its fastest
run.  After the timed loop the outputs are checked.  The last line
on stdout is one JSON object: with ``--trace 0`` it holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced repetition
(one untraced repetition runs first, for the tracing overhead).

See bench/README.md for the workloads, metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)  # the checkout: bench/ sits at its root
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_work")
STATE = os.path.join(ROOT, ".bench_state")
BLAS_THREADS = 1  # at most nproc; one thread keeps the timings steady
N_SETUPS = 3
N_ORACLE_DRAWS = 2

QUERY_STEPS = ("predict", "return-levels", "aggregate")

# Each workload: the simulate scenario, one run configuration shared by its
# commands, the number of ungauged targets, and the commands in order.
# There is no 550-site workload: there `fit` raises OverflowError on about
# half of the seeds, and `fit-sites` alone was too noisy on a shared host to
# hold its bound.  See bench/README.md.
WORKLOADS = {
    "paper60": {
        "scenario": {"n_sites": 60, "trend": True},
        "config": {
            "transform_descriptors": False, "trend": True,
            "covariates": ["c1", "c2"], "tau_covariates": ["c1"],
            "spatial": {"psi": True, "tau": True},
            "mcmc": {"n_chains": 2, "n_iterations": 250, "n_kept": 25},
            "return_periods": [10.0, 50.0, 100.0],
            "aggregate": {"n_blocks": 50, "pool_size": 4000, "n_bootstrap": 100},
        },
        "targets": 5,
        "steps": ("fit", "predict", "return-levels", "aggregate"),
    },
    "select_cv60": {
        "scenario": {"n_sites": 60, "trend": True},
        "config": {
            "transform_descriptors": False, "trend": True,
            "selection": {"grid_size": 3},
            "mcmc": {"n_chains": 2, "n_iterations": 120, "n_kept": 30},
            "cv": {"n_samples": 2000, "n_heldout": 6},
        },
        "targets": 0,
        "steps": ("select", "cv"),
    },
}

# module -> layer; gev belongs to the max step, _sparse to the latent model
LAYER_OF = {"sparse": "latent", "gev": "site_fit"}
LAYERS = ("cli", "dataio", "site_fit", "spde", "latent", "selection", "predict",
          "copula", "evaluate")


class Tally:
    """Operations attempted and failed: command runs and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.problems: list = []

    def check(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: {'; '.join(problems[:3])}")


# ----------------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv: list, log_path: str, trace: str | None = None,
              dump: str | None = None) -> dict:
    """Run one spatgev command; wall time ends when the command returns."""
    opts = (["--trace", trace] if trace else []) + (["--dump", dump] if dump else [])
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, *opts, "--", *argv],
                                env=child_env(), stdout=subprocess.PIPE, stderr=log)
        line = proc.stdout.readline().decode()
        t_done = time.monotonic()
        proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    ok = proc.returncode == 0 and line.strip() == "DONE 0"
    return {"ok": ok, "t0": t0, "wall": t_done - t0,
            "rss_mb": usage.ru_maxrss / 1024.0, "log": log_path}


def log_tail(path: str) -> str:
    with open(path, errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else "(no output)"


# ----------------------------------------------------------------------------
# Set-up: inputs from the seed
# ----------------------------------------------------------------------------


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def write_targets(path: str, sites_csv: str, n: int, seed: int) -> None:
    """Ungauged targets at random convex combinations of three gauged sites,
    so each lies inside the site hull; covariates drawn like the simulator's."""
    with open(sites_csv) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    rng = random.Random(seed)
    n_cov = len(header) - 3
    out = [",".join(header)]
    for k in range(n):
        picks = rng.sample(rows, 3)
        w = [rng.random() + 0.1 for _ in range(3)]
        total = sum(w)
        x = sum(wi * float(p[1]) for wi, p in zip(w, picks)) / total
        y = sum(wi * float(p[2]) for wi, p in zip(w, picks)) / total
        covs = [repr(rng.gauss(0.0, 1.0)) for _ in range(n_cov)]
        out.append(",".join([f"t{k + 1:03d}", repr(x), repr(y), *covs]))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def setup(spec: dict, seed: int, where: str, tally: Tally) -> dict:
    """Write the configs, simulate the data and write the targets."""
    os.makedirs(where)
    config = dict(spec["config"], seed=seed)
    config_path = os.path.join(where, "config.json")
    write_json(config_path, config)
    sim_config = os.path.join(where, "simulate.json")
    write_json(sim_config, {"seed": seed, "scenario": spec["scenario"]})
    sim_dir = os.path.join(where, "sim")
    res = run_child(["simulate", "--config", sim_config, "--out", sim_dir],
                    os.path.join(where, "simulate.log"))
    tally.check("simulate exits 0", [] if res["ok"] else [log_tail(res["log"])])
    inputs = {"config": config_path, "sim": sim_dir,
              "data": ["--maxima", os.path.join(sim_dir, "maxima.csv"),
                       "--sites", os.path.join(sim_dir, "sites.csv")],
              "n_chains": config.get("mcmc", {}).get("n_chains", 4)}
    if spec["targets"] and res["ok"]:
        inputs["targets"] = os.path.join(where, "targets.csv")
        write_targets(inputs["targets"], os.path.join(sim_dir, "sites.csv"),
                      spec["targets"], seed)
    return inputs


# ----------------------------------------------------------------------------
# One repetition of the workload
# ----------------------------------------------------------------------------


def step_argv(step: str, inputs: dict, out: str, fit_dir: str) -> list:
    argv = [step, "--config", inputs["config"], *inputs["data"], "--out", out]
    if step in QUERY_STEPS:
        argv += ["--fit", fit_dir]
    if step == "return-levels":
        argv += ["--targets", inputs["targets"]]
    return argv


def run_rep(step_names: tuple, inputs: dict, where: str, tally: Tally,
            trace: bool = False, fit_dir: str | None = None,
            deadline: float = math.inf, last: dict | None = None) -> dict:
    """Run the commands one after another; returns per-step results.

    Queries read ``fit_dir``, by default the fit of this repetition.  A
    command whose last wall time (in ``last``) would carry it past
    ``deadline`` is skipped.
    """
    os.makedirs(where)
    fit_dir = fit_dir or os.path.join(where, "fit")
    steps = {}
    for step in step_names:
        if time.monotonic() + (last or {}).get(step, 0.0) > deadline:
            continue
        out = os.path.join(where, step)
        argv = step_argv(step, inputs, out, fit_dir)
        trace_path = os.path.join(where, f"{step}.spans.json") if trace else None
        dump = os.path.join(where, "structure.pkl") if step == "fit" else None
        res = run_child(argv, os.path.join(where, f"{step}.log"), trace_path, dump)
        res.update(out=out, spans=trace_path, dump=dump)
        steps[step] = res
        tally.check(f"{step} exits 0", [] if res["ok"] else [log_tail(res["log"])])
    return steps


def rep_wall(steps: dict) -> float:
    return sum(r["wall"] for r in steps.values())


def step_values(reps: list, step: str, key: str) -> list:
    return [steps[step][key] for steps in reps if step in steps]


def fastest(reps: list, step: str) -> float:
    """Shortest wall time of a command over the repetitions.

    Every repetition does the same deterministic work, so their times differ
    only by interference from the shared host, which can only slow a run.
    """
    return min(step_values(reps, step, "wall"))


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


# ----------------------------------------------------------------------------
# Checks, outside the timed region
# ----------------------------------------------------------------------------


def src_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def check_theta_hash(digests: list, key: str, tally: Tally) -> None:
    """theta_draws.csv is identical in every repetition and in every run of
    this source tree with the same workload settings and seed."""
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(STATE, "theta_hashes.json")
    known = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    expected = known.get(key, digests[0])
    bad = [d for d in digests if d != expected]
    tally.check("theta_draws.csv hash repeats",
                [f"{len(bad)} of {len(digests)} hashes differ from {expected[:12]}"]
                if bad else [])
    if key not in known:
        known[key] = expected
        tmp = path + ".tmp"
        write_json(tmp, known)
        os.replace(tmp, path)


def check_outputs(spec: dict, inputs: dict, reps: list, seed: int,
                  workload: str, tally: Tally) -> None:
    import checks
    from spatgev.latent import marginal_loglik

    for steps in reps:
        for step, res in steps.items():
            if not res["ok"]:
                continue
            tally.check(f"{step} manifest", checks.check_manifest(res["out"]))
            if step == "predict":
                tally.check("predict levels", checks.check_return_levels(
                    os.path.join(res["out"], "return_levels.csv")))
            elif step == "return-levels":
                tally.check("ungauged levels", checks.check_return_levels(
                    os.path.join(res["out"], "ungauged_levels.csv")))
            elif step == "aggregate":
                tally.check("aggregate levels", checks.check_return_levels(
                    os.path.join(res["out"], "aggregate_levels.csv")))
            elif step == "cv":
                tally.check("cv scores", checks.check_cv(res["out"]))

    fits = [steps["fit"] for steps in reps if "fit" in steps and steps["fit"]["ok"]]
    if fits:
        draws = [os.path.join(f["out"], "theta_draws.csv") for f in fits]
        spec_digest = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()
        check_theta_hash([checks.sha256(p) for p in draws],
                         f"{src_digest()}:{spec_digest}:{workload}:{seed}", tally)
        with open(fits[0]["dump"], "rb") as fh:
            structure = pickle.load(fh)
        theta = checks.read_theta_draws(draws[0], inputs["n_chains"])
        rows = checks.oracle_rows(structure, theta.reshape(-1, theta.shape[2]),
                                  N_ORACLE_DRAWS)
        tally.check("marginal_loglik oracle",
                    checks.check_oracle(structure, rows, marginal_loglik))


# ----------------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def command_metrics(inputs: dict, reps: list) -> dict:
    """Command-level numbers of the untraced repetitions."""
    import checks

    out = {}

    if "fit" in reps[0]:
        out["fit_s"] = (fastest(reps, "fit"), "s")
        out["fit_dir_mb"] = (dir_bytes(reps[0]["fit"]["out"]) / 1e6, "MB")
        if reps[0]["fit"]["ok"]:
            draws = checks.read_theta_draws(
                os.path.join(reps[0]["fit"]["out"], "theta_draws.csv"), inputs["n_chains"])
            ess_min = float(checks.ess(draws).min())
            out["fit_ess_min"] = (ess_min, "count")
            out["fit_ess_per_s"] = (ess_min / out["fit_s"][0], "1/s")
    if "predict" in reps[0]:
        out["query_s"] = (sum(fastest(reps, s) for s in QUERY_STEPS), "s")
    if "select" in reps[0]:
        out["select_s"] = (fastest(reps, "select"), "s")
    if "cv" in reps[0]:
        out["cv_s"] = (fastest(reps, "cv"), "s")
        if reps[0]["cv"]["ok"]:
            out["cv_oos_bits"] = (checks.oos_bits(reps[0]["cv"]["out"]), "bits")
    return out


def end_to_end(setup_times: list, reps: list) -> dict:
    """wall_s sums each command's fastest run; peak_rss_mb is the largest
    over commands of each command's median peak RSS."""
    return {
        "wall_s": (sum(fastest(reps, step) for step in reps[0]), "s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (max(median(step_values(reps, step, "rss_mb")) for step in reps[0]),
                        "MB"),
        "out_mb": (sum(dir_bytes(r["out"]) for r in reps[0].values()) / 1e6, "MB"),
    }


def _pct(values: list, q: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return float(values[min(len(values) - 1, int(q * len(values)))])


def layer_of(span_name: str) -> str:
    module = span_name.split(".")[0]
    return LAYER_OF.get(module, module)


def layer_metrics(steps: dict, untraced: dict, commands: dict) -> dict:
    """Per-layer numbers from the spans of one traced repetition."""
    spans, counts, self_s = [], {}, dict.fromkeys(("startup", *LAYERS), 0.0)
    for res in steps.values():
        if not os.path.exists(res["spans"]):  # the child died before writing
            continue
        with open(res["spans"]) as fh:
            data = json.load(fh)
        self_s["startup"] += data["t_main"] - res["t0"]
        offset = len(spans)
        for sid, parent, name, t0, t1, attrs in data["spans"]:
            spans.append({"parent": parent + offset if parent >= 0 else -1,
                          "name": name, "dur": t1 - t0, "attrs": attrs or {},
                          "self": t1 - t0})
        for name, n in data["counts"].items():
            counts[name] = counts.get(name, 0) + n
    for sp in spans:
        if sp["parent"] >= 0:
            spans[sp["parent"]]["self"] -= sp["dur"]
    for sp in spans:
        self_s[layer_of(sp["name"])] += sp["self"]

    def named(name, parent=None):
        return [sp for sp in spans if sp["name"] == name and (
            parent is None or (sp["parent"] >= 0 and spans[sp["parent"]]["name"] == parent))]

    def total(name, parent=None):
        return sum(sp["dur"] for sp in named(name, parent))

    def mean_ms(name):
        found = named(name)
        return 1e3 * total(name) / len(found) if found else 0.0

    def ms_list(name):
        return [1e3 * sp["dur"] for sp in named(name)]

    def attr_values(name, key):
        return [sp["attrs"][key] for sp in named(name) if key in sp["attrs"]]

    def by_parent_layer(name, layer):
        return sum(1 for sp in named(name)
                   if sp["parent"] >= 0 and layer_of(spans[sp["parent"]]["name"]) == layer)

    traced = rep_wall(steps)
    untraced_s = rep_wall(untraced)
    out = {f"layer.{k}.self_s": (v, "s") for k, v in self_s.items()}
    out.update({
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced_s, "s"),
        "trace.unaccounted_s": (traced - sum(self_s.values()), "s"),
        "env.blas_threads": (BLAS_THREADS, "count"),
    })
    for key, name, unit in (
            ("fit_s", "cmd.fit.s", "s"),
            ("query_s", "cmd.query.s", "s"), ("select_s", "cmd.select.s", "s"),
            ("cv_s", "cmd.cv.s", "s"), ("fit_ess_min", "fit.ess_min", "count"),
            ("fit_ess_per_s", "fit.ess_per_s", "1/s"), ("fit_dir_mb", "fit.dir_mb", "MB"),
            ("cv_oos_bits", "cv.oos_bits", "bits")):
        out[name] = (commands.get(key, (0.0, unit))[0], unit)

    sites = named("site_fit.fit_site")
    loglik_calls = counts.get("site_fit.site_loglik", 0)
    ll = named("latent.marginal_loglik")
    factors_ll = named("sparse.SymmetricFactor.__init__", "latent.marginal_loglik")
    factors_draw = named("sparse.SymmetricFactor.__init__", "latent.sample_latent")
    draws = sum(attr_values("latent.sample_latent", "draws"))
    fits = named("latent.run_mcmc")
    out.update({
        "site_fit.fit_site.calls": (len(sites), "count"),
        "site_fit.fit_site.ms_p50": (_pct(ms_list("site_fit.fit_site"), 0.5), "ms"),
        "site_fit.fit_site.ms_p90": (_pct(ms_list("site_fit.fit_site"), 0.9), "ms"),
        "site_fit.site_loglik.calls_per_site": (loglik_calls / len(sites) if sites else 0.0,
                                                "count"),
        "site_fit.converged_frac": (
            sum(attr_values("site_fit.fit_site", "converged")) / len(sites) if sites else 0.0,
            "ratio"),
        "site_fit.restarts": (sum(attr_values("site_fit.fit_site", "restarts")), "count"),
        "site_fit.repaired": (sum(attr_values("site_fit.fit_site", "repaired")), "count"),
        "cli.fit_all_sites.calls": (by_parent_layer("site_fit.fit_all_sites", "cli"), "count"),
        "cli.load_fit.s": (total("cli._load_fit"), "s"),
        "cli.load_fit.self_s": (sum(sp["self"] for sp in named("cli._load_fit")), "s"),
        "dataio.write_csv_atomic.s": (total("dataio.write_csv_atomic"), "s"),
        "spde.build_mesh.ms": (mean_ms("spde.build_mesh"), "ms"),
        "spde.n_nodes": (max(attr_values("spde.build_mesh", "n_nodes"), default=0), "count"),
        "spde.fem_matrices.ms": (mean_ms("spde.fem_matrices"), "ms"),
        "spde.field_eigenvalues.ms": (mean_ms("spde.field_eigenvalues"), "ms"),
        "spde.field_eigenvalues.calls": (len(named("spde.field_eigenvalues")), "count"),
        "latent.marginal_loglik.calls": (len(ll), "count"),
        "latent.marginal_loglik.ms_p50": (_pct(ms_list("latent.marginal_loglik"), 0.5), "ms"),
        "latent.marginal_loglik.ms_p90": (_pct(ms_list("latent.marginal_loglik"), 0.9), "ms"),
        "latent.marginal_loglik.neg_inf": (
            sum(attr_values("latent.marginal_loglik", "neg_inf")), "count"),
        "latent.q_nu.ms": (1e3 * total("latent.LatentStructure.q_nu", "latent.marginal_loglik")
                           / len(ll) if ll else 0.0, "ms"),
        "sparse.SymmetricFactor.ms": (
            1e3 * sum(sp["dur"] for sp in factors_ll) / len(ll) if ll else 0.0, "ms"),
        "sparse.SymmetricFactor.calls": (len(named("sparse.SymmetricFactor.__init__")),
                                         "count"),
        "sparse.SymmetricFactor.calls_per_loglik": (len(factors_ll) / len(ll) if ll else 0.0,
                                                    "count"),
        "sparse.SymmetricFactor.calls_per_draw": (len(factors_draw) / draws if draws else 0.0,
                                                  "count"),
        "sparse.factor_nnz": (_pct([sp["attrs"].get("nnz", 0) for sp in factors_ll], 0.5),
                              "count"),
        "latent.sample_latent.draws": (draws, "count"),
        "latent.sample_latent.ms_per_draw": (
            1e3 * total("latent.sample_latent") / draws if draws else 0.0, "ms"),
        "latent.LatentStructure.init.calls": (len(named("latent.LatentStructure.__init__")),
                                              "count"),
        "latent.LatentStructure.init.ms": (mean_ms("latent.LatentStructure.__init__"), "ms"),
        "latent.run_mcmc.s": (total("latent.run_mcmc"), "s"),
        "latent.accept_rate": (statistics.fmean(attr_values("latent.run_mcmc", "accept_rate"))
                               if fits else 0.0, "ratio"),
        "latent.rhat_max": (max(attr_values("latent.run_mcmc", "rhat_max"), default=0.0),
                            "ratio"),
        "latent.ess_min": (min(attr_values("latent.run_mcmc", "ess_min"), default=0.0),
                           "count"),
        "selection.cv_score.calls": (len(named("selection.cv_score")), "count"),
        "selection.cv_score.ms": (mean_ms("selection.cv_score"), "ms"),
        "predict.return_level.ms": (mean_ms("predict.return_level"), "ms"),
        "predict.ungauged_return_level.ms": (mean_ms("predict.ungauged_return_level"), "ms"),
        "predict.posterior_predictive.ms": (mean_ms("predict.posterior_predictive"), "ms"),
        "copula.grow_samples.s": (total("copula.grow_samples"), "s"),
        "copula.aggregate_return_levels.s": (total("copula.aggregate_return_levels"), "s"),
        "evaluate.fit_rsm.s": (total("evaluate.fit_rsm"), "s"),
        "evaluate.fit_mle.s": (total("evaluate.fit_mle"), "s"),
        "evaluate.kde_density.calls": (len(named("evaluate.kde_density")), "count"),
        "evaluate.kde_density.s": (total("evaluate.kde_density"), "s"),
        "evaluate.fit_all_sites.calls": (by_parent_layer("site_fit.fit_all_sites", "evaluate"),
                                         "count"),
    })
    return out


# ----------------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict | None = None):
    """Run one workload; returns (result, table of named numbers, problems)."""
    import checks

    spec = spec or WORKLOADS[workload]
    tally = Tally()
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, inputs_all = [], []
        for k in range(N_SETUPS):
            t0 = time.monotonic()
            inputs_all.append(setup(spec, seed, os.path.join(work, f"setup{k}"), tally))
            setup_times.append(time.monotonic() - t0)
        inputs = inputs_all[-1]
        hashes = {checks.sha256(os.path.join(i["sim"], "maxima.csv"))
                  for i in inputs_all if os.path.exists(os.path.join(i["sim"], "maxima.csv"))}
        tally.check("simulate repeats byte for byte",
                    [] if len(hashes) == 1 else [f"{len(hashes)} distinct maxima.csv"])
        if tally.problems:
            return {"correct": False, "attempted": tally.attempted,
                    "failed": len(tally.problems), "metrics": {}}, {}, tally.problems

        # Timed loop: the first pass runs every command; later passes run,
        # in order, each command whose last wall time still fits in
        # `seconds`, with queries reading the first pass's fit.
        reps, last = [], {}
        deadline = time.monotonic() + seconds
        while True:
            steps = run_rep(spec["steps"], inputs, os.path.join(work, f"rep{len(reps)}"),
                            tally, fit_dir=reps[0]["fit"]["out"] if reps and "fit" in reps[0]
                            else None, deadline=deadline if reps else math.inf, last=last)
            if not steps:
                break
            reps.append(steps)
            last.update((step, res["wall"]) for step, res in steps.items())
            if trace:
                break
        traced = run_rep(spec["steps"], inputs, os.path.join(work, "traced"), tally,
                         trace=True) if trace else {}

        check_outputs(spec, inputs, [*reps, traced], seed, workload, tally)
        commands = command_metrics(inputs, reps)
        metrics = end_to_end(setup_times, reps)
        table = dict(metrics, **commands)
        table["fail_frac"] = (len(tally.problems) / tally.attempted, "ratio")
        table["blas_threads"] = (BLAS_THREADS, "count")
        table["repetitions"] = (len(reps), "count")
        table["commands_run"] = (sum(len(steps) for steps in reps), "count")
        if trace:
            metrics = layer_metrics(traced, reps[0], commands)
        result = {
            "correct": not tally.problems,
            "attempted": tally.attempted,
            "failed": len(tally.problems),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, table, tally.problems
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "spatgev", "cli.py")):
        print(f"bench: no spatgev sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # the checks import spatgev and numpy in this process: same BLAS pinning
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)

    result, table, problems = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in table.items():
        print(f"{args.workload:12s} {name:16s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
