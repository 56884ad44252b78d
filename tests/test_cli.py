"""End-to-end tests of the command line surface.

Commands run in-process through cli.main so exit codes and stderr can be
asserted directly.  A shared pipeline fixture keeps the expensive steps
(simulate + fit) to one run.
"""

import csv
import dataclasses
import hashlib
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
import typing
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import spatgev.cli
import spatgev.evaluate
import spatgev.spde
from spatgev.cli import RunConfig, main
from spatgev.gev import LINK
from spatgev.predict import UngaugedSite, return_level, ungauged_return_level

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

CONFIG = {
    "seed": 3,
    "scenario": {"n_sites": 14, "n_covariates": 2,
                 "beta_psi": [3.4, 0.5, 0.0], "beta_tau": [-1.0, 0.1, 0.0],
                 "s_psi": 0.0, "eps_psi": 0.3, "s_tau": 0.0, "eps_tau": 0.12,
                 "record_length": 50},
    "transform_descriptors": False,
    "covariates": ["c1"],
    "tau_covariates": ["c1"],
    "spatial": {"psi": False, "tau": False},
    "mcmc": {"n_chains": 2, "n_iterations": 500, "n_kept": 100},
    "cv": {"variants": ["CONST", "MLE", "LGM-IID"], "n_heldout": 3,
           "n_samples": 4000},
    "return_periods": [10.0, 100.0],
    "aggregate": {"n_blocks": 30, "pool_size": 3000, "n_bootstrap": 40},
}


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _manifest_without_timestamp(path):
    with open(path) as fh:
        m = json.load(fh)
    m.pop("created_utc")
    return m


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    sim = str(root / "sim")
    fit = str(root / "fit")
    assert main(["simulate", "--config", str(cfg), "--out", sim]) == 0
    data = ["--maxima", os.path.join(sim, "maxima.csv"),
            "--sites", os.path.join(sim, "sites.csv")]
    kept = {}
    with pytest.MonkeyPatch.context() as mp:
        # keep what fit computed in memory: its latent structure and result
        for name, key in (("build_structure", "structure"), ("smooth_step", "result")):
            def keep(*args, _fn=getattr(spatgev.cli, name), _key=key, **kwargs):
                kept[_key] = _fn(*args, **kwargs)
                return kept[_key]

            mp.setattr(spatgev.cli, name, keep)
        assert main(["fit", "--config", str(cfg), *data, "--out", fit]) == 0
    return {"root": root, "cfg": str(cfg), "sim": sim, "fit": fit, "data": data, **kept}


@pytest.fixture(scope="module")
def spatial_fit(pipeline):
    """A short fit with a field on psi, on the pipeline's data: its fit
    directory holds a mesh."""
    cfg = pipeline["root"] / "spatial_cfg.json"
    cfg.write_text(json.dumps({**CONFIG, "spatial": {"psi": True},
                               "mcmc": {"n_chains": 1, "n_iterations": 40,
                                        "n_kept": 10}}))
    fit = str(pipeline["root"] / "spatial_fit")
    assert main(["fit", "--config", str(cfg), *pipeline["data"], "--out", fit]) == 0
    return {"cfg": str(cfg), "fit": fit}


def _targets(tmp_path):
    targets = tmp_path / "targets.csv"
    targets.write_text("station,x,y,c1,c2\nt001,50.0,50.0,0.5,-0.2\n")
    return str(targets)


def _query_argvs(cfg, data, fit, targets, out_root):
    """predict, return-levels and aggregate on one fit directory."""
    common = ["--config", cfg, *data, "--fit", fit]
    return [["predict", *common, "--out", os.path.join(out_root, "p")],
            ["return-levels", *common, "--targets", targets,
             "--out", os.path.join(out_root, "r")],
            ["aggregate", *common, "--out", os.path.join(out_root, "a")]]


class TestSimulate:
    def test_artifacts_and_manifest(self, pipeline):
        sim = pipeline["sim"]
        for name in ("maxima.csv", "sites.csv", "truth.json", "manifest.json"):
            assert os.path.exists(os.path.join(sim, name))
        manifest = _manifest_without_timestamp(os.path.join(sim, "manifest.json"))
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 3
        assert len(manifest["config_hash"]) == 16
        assert set(manifest["outputs"]) == {"maxima.csv", "sites.csv", "truth.json"}

    def test_rerun_byte_identical(self, pipeline):
        out2 = str(pipeline["root"] / "sim2")
        assert main(["simulate", "--config", pipeline["cfg"], "--out", out2]) == 0
        for name in ("maxima.csv", "sites.csv", "truth.json"):
            assert _read(os.path.join(pipeline["sim"], name)) == \
                _read(os.path.join(out2, name))
        assert _manifest_without_timestamp(os.path.join(pipeline["sim"], "manifest.json")) == \
            _manifest_without_timestamp(os.path.join(out2, "manifest.json"))

    @pytest.mark.filterwarnings("ignore:'spatgev.cli' found in sys.modules")
    def test_runs_as_main_without_alter_sys(self, tmp_path, monkeypatch):
        # python -m cProfile -m spatgev.cli runs the module this way: as
        # __main__, while sys.modules["__main__"] stays the caller's module
        out = tmp_path / "sim"
        config = json.dumps({"scenario": {"n_sites": 8, "record_length": 30}})
        monkeypatch.setattr(sys, "argv",
                            ["spatgev", "simulate", "--config", config, "--out", str(out)])
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("spatgev.cli", run_name="__main__", alter_sys=False)
        assert exited.value.code == 0
        assert os.path.exists(out / "manifest.json")


class TestFitSites:
    def test_matches_golden_file(self, tmp_path):
        cfg = os.path.join(DATA_DIR, "golden_config.json")
        sim = str(tmp_path / "sim")
        out = str(tmp_path / "fs")
        assert main(["simulate", "--config", cfg, "--out", sim]) == 0
        assert main(["fit-sites", "--config", cfg,
                     "--maxima", os.path.join(sim, "maxima.csv"),
                     "--sites", os.path.join(sim, "sites.csv"),
                     "--out", out]) == 0
        got = _read(os.path.join(out, "site_fits.csv"))
        assert got == _read(os.path.join(DATA_DIR, "golden_site_fits.csv"))


class TestFit:
    def test_artifacts(self, pipeline):
        fit = pipeline["fit"]
        for name in ("max_step.csv", "mesh.json", "theta_draws.csv", "theta_summary.csv",
                     "eta_draws.npy", "nu_draws.npy", "latent_summary.csv",
                     "model.json", "manifest.json"):
            assert os.path.exists(os.path.join(fit, name))
        with open(os.path.join(fit, "model.json")) as fh:
            model = json.load(fh)
        manifest = _manifest_without_timestamp(os.path.join(fit, "manifest.json"))
        for name in ("model.json", "max_step.csv", "mesh.json", "theta_draws.csv",
                     "theta_summary.csv", "eta_draws.npy", "nu_draws.npy"):
            digest = hashlib.sha256(_read(os.path.join(fit, name))).hexdigest()
            assert manifest["outputs"][name] == digest
        # no field, so no mesh
        assert _read(os.path.join(fit, "mesh.json")) == b"null\n"
        with open(os.path.join(fit, "max_step.csv")) as fh:
            header = fh.readline().rstrip().split(",")
            n_rows = sum(1 for _ in fh)
        assert header[:4] == ["station", "psi", "tau", "phi"]
        assert header[-5:] == ["loglik", "n_obs", "converged", "hessian_repaired",
                               "n_restarts"]
        assert len(header) == 1 + 3 + 9 + 5
        assert n_rows == 14
        assert model["covariates"] == ["c1"]
        assert model["theta_names"] == ["eps_psi", "eps_tau", "eps_phi"]
        draws = np.loadtxt(os.path.join(fit, "theta_draws.csv"),
                           delimiter=",", skiprows=1)
        assert draws.shape == (200, 3)
        assert np.all(draws > 0.0)
        eta = np.load(os.path.join(fit, "eta_draws.npy"))
        assert eta.dtype == np.float64 and eta.shape == (200, 3 * 14)

    def test_rerun_byte_identical(self, pipeline):
        out2 = str(pipeline["root"] / "fit2")
        assert main(["fit", "--config", pipeline["cfg"], *pipeline["data"],
                     "--out", out2]) == 0
        for name in ("max_step.csv", "mesh.json", "theta_draws.csv", "eta_draws.npy",
                     "nu_draws.npy", "model.json"):
            assert _read(os.path.join(pipeline["fit"], name)) == \
                _read(os.path.join(out2, name))

    def test_at_least_four_kept_draws_per_chain(self, pipeline, tmp_path, capsys):
        # split-Rhat takes two draws from each half of a chain: three kept
        # draws once gave Rhat 1.0 from empty halves, four are the fewest it
        # needs, and nothing warns on the way
        def fit(n_kept):
            cfg = tmp_path / f"kept{n_kept}.json"
            cfg.write_text(json.dumps({**CONFIG, "mcmc": {"n_chains": 2, "n_iterations": 40,
                                                          "n_kept": n_kept}}))
            out = str(tmp_path / f"fit{n_kept}")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return main(["fit", "--config", str(cfg), *pipeline["data"],
                             "--out", out]), out

        code, out = fit(3)
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "n_kept" in err["message"]
        assert not os.path.exists(out)
        code, out = fit(4)
        assert code == 0
        with open(os.path.join(out, "theta_summary.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(math.isfinite(float(row["rhat"])) for row in rows)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_draws_equal_on_one_cpu_and_all(self, pipeline, tmp_path):
        # a fresh fit with fields on psi and tau pinned to one CPU with one
        # BLAS thread (serial chains) and one on every CPU with no BLAS
        # variable set (forked chains) write the same draws, bit for bit.
        # The second case, 60 sites with a trend, has a factor band wide
        # enough for threaded BLAS kernels to sum in another order
        sim = str(tmp_path / "sim60")
        sim_cfg = tmp_path / "sim60.json"
        sim_cfg.write_text(json.dumps({"seed": 11, "scenario": {"n_sites": 60, "trend": True}}))
        assert main(["simulate", "--config", str(sim_cfg), "--out", sim]) == 0
        cases = {
            "small": ({**CONFIG, "spatial": {"psi": True, "tau": True},
                       "mcmc": {"n_chains": 2, "n_iterations": 60, "n_kept": 10}},
                      pipeline["data"]),
            "paper60": ({"seed": 11, "transform_descriptors": False, "trend": True,
                         "covariates": ["c1", "c2"], "tau_covariates": ["c1"],
                         "spatial": {"psi": True, "tau": True},
                         "mcmc": {"n_chains": 2, "n_iterations": 100, "n_kept": 10}},
                        ["--maxima", os.path.join(sim, "maxima.csv"),
                         "--sites", os.path.join(sim, "sites.csv")]),
        }
        code = "\n".join([
            "import os, sys",
            "if sys.argv[1] == 'pinned':",
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
            "from spatgev.cli import main",
            "sys.exit(main(sys.argv[2:]))",
        ])
        src = os.path.dirname(os.path.dirname(spatgev.cli.__file__))
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        base = {k: v for k, v in os.environ.items() if k not in blas}
        for case, (config, data) in cases.items():
            cfg = tmp_path / f"{case}.json"
            cfg.write_text(json.dumps(config))
            for how in ("pinned", "unpinned"):
                env = {**base, "PYTHONPATH": src}
                if how == "pinned":
                    env["OPENBLAS_NUM_THREADS"] = "1"
                subprocess.run([sys.executable, "-c", code, how, "fit", "--config", str(cfg),
                                *data, "--out", str(tmp_path / case / how)],
                               env=env, check=True, capture_output=True, timeout=300)
            for name in ("theta_draws.csv", "eta_draws.npy", "nu_draws.npy"):
                assert _read(str(tmp_path / case / "pinned" / name)) == \
                    _read(str(tmp_path / case / "unpinned" / name)), (case, name)

    def test_mesh_file_is_the_fit_mesh(self, pipeline, spatial_fit):
        with open(os.path.join(spatial_fit["fit"], "mesh.json")) as fh:
            text = fh.read()
        assert ", " not in text and ": " not in text  # compact
        stored = spatgev.spde.Mesh.from_dict(json.loads(text))
        ds, _ = spatgev.cli._load_inputs(
            RunConfig.from_json(spatial_fit["cfg"]),
            spatgev.cli._build_parser().parse_args(
                ["fit", *pipeline["data"], "--out", "unused"]))
        built = spatgev.spde.build_mesh(ds.sites)
        assert np.array_equal(stored.points, built.points)
        assert np.array_equal(stored.triangles, built.triangles)
        assert stored.diameter == built.diameter


class TestFitDirectory:
    """Queries read the max step from the fit directory and never rerun it."""

    def _copy_fit(self, pipeline, tmp_path):
        fit = str(tmp_path / "fit_copy")
        shutil.copytree(pipeline["fit"], fit)
        return fit

    def test_queries_do_not_rerun_max_step(self, pipeline, spatial_fit, tmp_path,
                                           monkeypatch):
        # nor build the mesh: the fit directory carries it
        def refuse(*args, **kwargs):
            raise AssertionError("the max step or the mesh ran again")

        monkeypatch.setattr(spatgev.cli, "fit_all_sites", refuse)
        monkeypatch.setattr(spatgev.cli, "build_mesh", refuse)
        monkeypatch.setattr(spatgev.spde, "build_mesh", refuse)
        targets = _targets(tmp_path)
        for k, fit in enumerate((pipeline, spatial_fit)):
            for argv in _query_argvs(fit["cfg"], pipeline["data"], fit["fit"], targets,
                                     str(tmp_path / str(k))):
                assert main(argv) == 0

    def _load(self, pipeline):
        cfg = RunConfig.from_json(pipeline["cfg"])
        args = spatgev.cli._build_parser().parse_args(
            ["predict", "--config", pipeline["cfg"], *pipeline["data"],
             "--fit", pipeline["fit"], "--out", "unused"])
        result, _, _ = spatgev.cli._load_fit(pipeline["fit"], cfg, args)
        return result

    def test_structure_rebuilt_bit_for_bit(self, pipeline):
        result = self._load(pipeline)
        built = pipeline["structure"]
        assert np.array_equal(result.structure.eta_hat, built.eta_hat)
        assert np.array_equal(result.structure.prec_blocks, built.prec_blocks)

    def test_draws_read_back_bit_for_bit(self, pipeline):
        (_, computed), result = pipeline["result"], self._load(pipeline)
        for name in ("theta_draws", "eta_draws", "nu_draws"):
            stored, fitted = getattr(result, name), getattr(computed, name)
            assert stored.dtype == fitted.dtype and stored.shape == fitted.shape
            assert stored.tobytes() == fitted.tobytes(), name
        assert result.t0 == computed.t0 == LINK.t0

    def test_tampered_value_refused(self, pipeline, tmp_path, capsys):
        fit = self._copy_fit(pipeline, tmp_path)
        path = os.path.join(fit, "max_step.csv")
        with open(path) as fh:
            lines = fh.read().splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) + 1e-9)
        lines[1] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("".join(lines))
        code = main(["predict", "--config", pipeline["cfg"], *pipeline["data"],
                     "--fit", fit, "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "DataError"
        assert "max_step.csv" in err["message"]

    def test_tampered_draw_refused(self, pipeline, tmp_path, capsys):
        fit = self._copy_fit(pipeline, tmp_path)
        path = os.path.join(fit, "eta_draws.npy")
        with open(path, "rb") as fh:
            np.lib.format.read_magic(fh)
            np.lib.format.read_array_header_1_0(fh)
            data_start = fh.tell()
        raw = bytearray(_read(path))
        raw[data_start + 3] ^= 0x01  # one bit of the first draw's first value
        with open(path, "wb") as fh:
            fh.write(bytes(raw))
        code = main(["predict", "--config", pipeline["cfg"], *pipeline["data"],
                     "--fit", fit, "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "DataError"
        assert "eta_draws.npy" in err["message"]
        assert "sha256" in err["message"]

    @pytest.mark.parametrize("bad", ["float32", "1-D", "rows", "object", "npz", "empty"])
    def test_bad_draw_array_refused(self, pipeline, tmp_path, capsys, bad):
        # a signed manifest passes the hash check, so the array check refuses
        fit = self._copy_fit(pipeline, tmp_path)
        path = os.path.join(fit, "eta_draws.npy")
        eta = np.load(path)
        with open(path, "wb") as fh:
            if bad == "object":  # a pickled array
                np.save(fh, eta.astype(object), allow_pickle=True)
            elif bad == "npz":
                np.savez(fh, eta=eta)
            elif bad != "empty":
                np.save(fh, {"float32": eta.astype(np.float32), "1-D": eta.ravel(),
                             "rows": eta[1:]}[bad])
        self._resign(fit, "eta_draws.npy")
        self._refused(capsys, self._predict(fit, pipeline["cfg"], pipeline["data"],
                                            tmp_path), "eta_draws.npy")

    def test_csv_draws_refused(self, pipeline, tmp_path, capsys):
        # a fit directory of the older layout: signed CSV draws and no .npy
        fit = self._copy_fit(pipeline, tmp_path)
        for name in ("eta_draws", "nu_draws"):
            draws = np.load(os.path.join(fit, name + ".npy"))
            os.remove(os.path.join(fit, name + ".npy"))
            np.savetxt(os.path.join(fit, name + ".csv"), draws, delimiter=",",
                       header=",".join(f"c{k}" for k in range(draws.shape[1])),
                       comments="")
            self._resign(fit, name + ".csv", drop=name + ".npy")
        message = self._refused(capsys, self._predict(fit, pipeline["cfg"],
                                                      pipeline["data"], tmp_path),
                                "eta_draws.npy")
        assert "refit" in message

    def test_queries_skip_field_eigenproblem(self, pipeline, spatial_fit, tmp_path,
                                             monkeypatch):
        # a fit with a field needs the eigenvalues for its likelihood; the
        # queries on it evaluate no likelihood and must not compute them
        def refuse(*args, **kwargs):
            raise AssertionError("field eigenvalues computed")

        monkeypatch.setattr(spatgev.spde, "field_eigenvalues", refuse)
        for argv in _query_argvs(spatial_fit["cfg"], pipeline["data"], spatial_fit["fit"],
                                 _targets(tmp_path), str(tmp_path)):
            assert main(argv) == 0

    def test_queries_load_no_scipy(self, pipeline, spatial_fit, tmp_path):
        # a fresh process that imports what the benchmark's child imports and
        # runs the three queries on a fit with a field loads no scipy module
        argvs = _query_argvs(spatial_fit["cfg"], pipeline["data"], spatial_fit["fit"],
                             _targets(tmp_path), str(tmp_path))
        code = "\n".join([
            "import importlib, json, sys",
            "for m in ('cli', 'dataio', 'site_fit', '_sparse', 'spde', 'latent',",
            "          'selection', 'predict', 'copula', 'evaluate'):",
            "    importlib.import_module('spatgev.' + m)",
            "from spatgev.cli import main",
            f"codes = [main(argv) for argv in {argvs!r}]",
            "print(json.dumps([codes, sorted(m for m in sys.modules",
            "                                if m.split('.')[0] == 'scipy')]))",
        ])
        src = os.path.dirname(os.path.dirname(spatgev.cli.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True,
                             timeout=120)
        assert json.loads(out.stdout.strip().splitlines()[-1]) == [[0, 0, 0], []]

    def test_mesh_commands_load_no_scipy_spatial(self, pipeline, tmp_path):
        # a fresh process runs every command that builds a mesh; the mesh
        # needs numpy only, so none of them loads scipy.spatial
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            **CONFIG, "spatial": {"psi": True},
            "mcmc": {"n_chains": 1, "n_iterations": 40, "n_kept": 10},
            "cv": {**CONFIG["cv"], "variants": ["CONST", "LGM-FULL"]}}))
        common = ["--config", str(cfg), *pipeline["data"]]
        argvs = [["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")],
                 *([cmd, *common, "--out", str(tmp_path / cmd)] for cmd in ("fit", "select", "cv"))]
        code = "\n".join([
            "import json, sys",
            "import spatgev.cli, spatgev.evaluate, spatgev.simulate, spatgev.spde",
            "calls = []",
            "def build_mesh(*args, _fn=spatgev.spde.build_mesh, **kwargs):",
            "    calls.append(1)",
            "    return _fn(*args, **kwargs)",
            "for module in (spatgev.cli, spatgev.evaluate, spatgev.simulate):",
            "    module.build_mesh = build_mesh",
            "codes = []",
            f"for argv in {argvs!r}:",
            "    n = len(calls)",
            "    codes.append([spatgev.cli.main(argv), len(calls) > n])",
            "print(json.dumps([codes, sorted(m for m in sys.modules",
            "                                if m.startswith('scipy.spatial'))]))",
        ])
        src = os.path.dirname(os.path.dirname(spatgev.cli.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True,
                             timeout=300)
        assert json.loads(out.stdout.strip().splitlines()[-1]) == [[[0, True]] * 4, []]

    def _refused(self, capsys, argv, name):
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "DataError"
        assert name in err["message"]
        return err["message"]

    def _predict(self, fit, cfg, data, tmp_path):
        return ["predict", "--config", cfg, *data, "--fit", fit,
                "--out", str(tmp_path / "o")]

    def _resign(self, fit, name, drop=None):
        """Record name's current sha256 in the fit's manifest.json."""
        path = os.path.join(fit, "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        manifest["outputs"][name] = hashlib.sha256(_read(os.path.join(fit, name))).hexdigest()
        manifest["outputs"].pop(drop, None)
        with open(path, "w") as fh:
            json.dump(manifest, fh)

    def test_missing_mesh_refused(self, pipeline, tmp_path, capsys):
        # a fit directory written before the mesh was stored
        fit = self._copy_fit(pipeline, tmp_path)
        os.remove(os.path.join(fit, "mesh.json"))
        self._refused(capsys, self._predict(fit, pipeline["cfg"], pipeline["data"], tmp_path),
                      "mesh.json")

    def test_tampered_mesh_refused(self, pipeline, spatial_fit, tmp_path, capsys):
        fit = self._copy_fit(spatial_fit, tmp_path)
        path = os.path.join(fit, "mesh.json")
        with open(path) as fh:
            stored = json.load(fh)
        stored["points"][-1][0] += 1e-9
        with open(path, "w") as fh:
            json.dump(stored, fh, separators=(",", ":"))
        self._refused(capsys, self._predict(fit, spatial_fit["cfg"], pipeline["data"],
                                            tmp_path), "mesh.json")

    def test_mesh_of_other_sites_refused(self, pipeline, spatial_fit, tmp_path, capsys):
        # the same stations at moved coordinates: the stored mesh is not theirs
        with open(os.path.join(pipeline["sim"], "sites.csv")) as fh:
            lines = fh.read().splitlines()
        row = lines[2].split(",")
        row[1] = repr(float(row[1]) + 1e-6)
        lines[2] = ",".join(row)
        sites = tmp_path / "sites.csv"
        sites.write_text("\n".join(lines) + "\n")
        data = ["--maxima", pipeline["data"][1], "--sites", str(sites)]
        message = self._refused(capsys, self._predict(spatial_fit["fit"], spatial_fit["cfg"],
                                                      data, tmp_path), "mesh.json")
        assert "site coordinates" in message

    def test_mesh_disagreeing_with_model_refused(self, pipeline, spatial_fit, tmp_path,
                                                 capsys):
        # a null mesh for a model with a field, recorded in the manifest
        fit = self._copy_fit(spatial_fit, tmp_path)
        path = os.path.join(fit, "mesh.json")
        with open(path, "w") as fh:
            fh.write("null\n")
        self._resign(fit, "mesh.json")
        self._refused(capsys, self._predict(fit, spatial_fit["cfg"], pipeline["data"],
                                            tmp_path), "mesh.json")

    def test_missing_file_refused(self, pipeline, tmp_path, capsys):
        fit = self._copy_fit(pipeline, tmp_path)
        os.remove(os.path.join(fit, "max_step.csv"))
        code = main(["predict", "--config", pipeline["cfg"], *pipeline["data"],
                     "--fit", fit, "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "max_step.csv" in err["message"]


class TestPredict:
    def test_levels_monotone_in_period(self, pipeline):
        out = str(pipeline["root"] / "pred")
        assert main(["predict", "--config", pipeline["cfg"], *pipeline["data"],
                     "--fit", pipeline["fit"], "--out", out]) == 0
        rows = {}
        with open(os.path.join(out, "return_levels.csv")) as fh:
            next(fh)
            for line in fh:
                st, period, _, mean, lower, upper = line.rstrip().split(",")
                rows.setdefault(st, {})[float(period)] = (
                    float(mean), float(lower), float(upper))
        assert len(rows) == 14
        for st, by_period in rows.items():
            mean10, lo10, hi10 = by_period[10.0]
            mean100, _, _ = by_period[100.0]
            assert mean10 < mean100
            assert lo10 < mean10 < hi10

    def test_rerun_byte_identical(self, pipeline):
        a = str(pipeline["root"] / "pred_a")
        b = str(pipeline["root"] / "pred_b")
        for out in (a, b):
            assert main(["predict", "--config", pipeline["cfg"], *pipeline["data"],
                         "--fit", pipeline["fit"], "--out", out]) == 0
        assert _read(os.path.join(a, "return_levels.csv")) == \
            _read(os.path.join(b, "return_levels.csv"))

    def test_config_model_disagreement_rejected(self, pipeline, tmp_path):
        bad = dict(CONFIG)
        bad["covariates"] = ["c2"]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = main(["predict", "--config", str(cfg), *pipeline["data"],
                     "--fit", pipeline["fit"], "--out", str(tmp_path / "o")])
        assert code == 2

    def test_spatial_compared_as_section(self, pipeline, spatial_fit, tmp_path, capsys):
        # the fit gave {"psi": true}; naming tau false as well is the same model
        given = {k: v for k, v in CONFIG.items() if k != "spatial"}
        outs = {}
        for name, spatial in (("omitted", None), ("same", {"psi": True, "tau": False}),
                              ("other", {"tau": True})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(given if spatial is None
                                      else {**given, "spatial": spatial}))
            outs[name] = str(tmp_path / name)
            code = main(["predict", "--config", str(cfg), *pipeline["data"],
                         "--fit", spatial_fit["fit"], "--out", outs[name]])
            assert code == (2 if name == "other" else 0), name
        assert (_read(os.path.join(outs["same"], "return_levels.csv"))
                == _read(os.path.join(outs["omitted"], "return_levels.csv")))
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError" and "'spatial'" in err["message"]
        assert not os.path.exists(outs["other"])


class TestReturnLevels:
    def test_ungauged_outputs(self, pipeline, tmp_path):
        targets = tmp_path / "targets.csv"
        targets.write_text(
            "station,x,y,c1,c2\nt001,50.0,50.0,0.5,-0.2\nt002,20.0,77.0,-1.0,1.1\n")
        out = str(tmp_path / "ug")
        assert main(["return-levels", "--config", pipeline["cfg"],
                     *pipeline["data"], "--fit", pipeline["fit"],
                     "--targets", str(targets), "--out", out]) == 0
        with open(os.path.join(out, "ungauged_levels.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "station,period,year,mean,lower,upper"
        assert len(lines) == 5  # 2 targets x 2 periods

    def test_non_finite_target_descriptor_refused(self, pipeline, tmp_path, capsys):
        targets = tmp_path / "targets.csv"
        targets.write_text("station,x,y,c1,c2\nt001,50.0,50.0,nan,-0.2\n")
        code = main(["return-levels", "--config", pipeline["cfg"],
                     *pipeline["data"], "--fit", pipeline["fit"],
                     "--targets", str(targets), "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert "c1" in err["message"]

    def test_non_finite_target_coordinate_refused(self, pipeline, tmp_path, capsys):
        targets = tmp_path / "targets.csv"
        targets.write_text("station,x,y,c1,c2\nt001,50.0,50.0,0.5,-0.2\n"
                           "t002,nan,50.0,0.5,-0.2\n")
        code = main(["return-levels", "--config", pipeline["cfg"],
                     *pipeline["data"], "--fit", pipeline["fit"],
                     "--targets", str(targets), "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert str(targets) in err["message"] and "t002" in err["message"]
        assert not os.path.exists(tmp_path / "o")

    def test_missing_covariate_in_targets(self, pipeline, tmp_path, capsys):
        # the model takes c1 on psi and tau; the targets give only c2
        targets = tmp_path / "targets.csv"
        targets.write_text("station,x,y,c2\nt001,50.0,50.0,-0.2\n")
        code = main(["return-levels", "--config", pipeline["cfg"],
                     *pipeline["data"], "--fit", pipeline["fit"],
                     "--targets", str(targets), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "'c1'" in err["message"]
        assert not os.path.exists(tmp_path / "o")


@pytest.fixture(scope="module")
def trend_fit(pipeline):
    """A trend model anchored at 1990 on data simulated with a trend, and
    the posterior its fit computed."""
    root = pipeline["root"]
    sim_cfg = root / "trend_sim.json"
    sim_cfg.write_text(json.dumps({"seed": 3, "scenario": {**CONFIG["scenario"],
                                                           "trend": True}}))
    sim = str(root / "trend_sim")
    assert main(["simulate", "--config", str(sim_cfg), "--out", sim]) == 0
    data = ["--maxima", os.path.join(sim, "maxima.csv"),
            "--sites", os.path.join(sim, "sites.csv")]
    fitted = {**CONFIG, "trend": True, "mcmc": {"n_chains": 1, "n_iterations": 60,
                                                 "n_kept": 20}}
    cfg = root / "trend_fit.json"
    cfg.write_text(json.dumps({**fitted, "t0": 1990}))
    fit = str(root / "trend_fit")
    kept = []
    with pytest.MonkeyPatch.context() as mp:
        def keep(*args, _fn=spatgev.cli.smooth_step, **kwargs):
            theta, result = _fn(*args, **kwargs)
            kept.append(result)
            return theta, result

        mp.setattr(spatgev.cli, "smooth_step", keep)
        assert main(["fit", "--config", str(cfg), *data, "--out", fit]) == 0
    # the queries' config omits t0 and asks for a year away from the anchor
    query_cfg = root / "trend_query.json"
    query_cfg.write_text(json.dumps({**fitted, "predict": {"year": 2010.0}}))
    return {"fit": fit, "data": data, "cfg": str(query_cfg), "result": kept[0]}


def _level_columns(path):
    """{station: (mean, lower, upper) columns} of a levels table."""
    with open(path) as fh:
        next(fh)
        rows = [line.rstrip().split(",") for line in fh]
    out = {}
    for st, _, year, *values in rows:
        assert float(year) == 2010.0
        out.setdefault(st, []).append([float(v) for v in values])
    return {st: np.array(v).T for st, v in out.items()}


class TestTrendAnchor:
    """Queries anchor the trend at the fit's t0, not at the config's default."""

    @staticmethod
    def _curves(curve):
        return np.array([curve.mean, curve.lower, curve.upper])

    def test_predict_uses_fitted_anchor(self, trend_fit, tmp_path):
        out = str(tmp_path / "p")
        assert main(["predict", "--config", trend_fit["cfg"], *trend_fit["data"],
                     "--fit", trend_fit["fit"], "--out", out]) == 0
        levels = _level_columns(os.path.join(out, "return_levels.csv"))
        result = trend_fit["result"]
        assert result.t0 == 1990.0
        at_link_t0 = dataclasses.replace(result, t0=LINK.t0)
        assert len(levels) == result.structure.n_sites
        for i, st in enumerate(levels):  # the stations in the data's order
            periods = CONFIG["return_periods"]
            expected = self._curves(return_level(result, i, periods, year=2010.0))
            assert np.array_equal(levels[st], expected), st
            other = self._curves(return_level(at_link_t0, i, periods, year=2010.0))
            assert not np.allclose(levels[st], other, rtol=1e-9), st

    def test_return_levels_use_fitted_anchor(self, trend_fit, tmp_path):
        out = str(tmp_path / "r")
        assert main(["return-levels", "--config", trend_fit["cfg"], *trend_fit["data"],
                     "--fit", trend_fit["fit"], "--targets", _targets(tmp_path),
                     "--out", out]) == 0
        levels = _level_columns(os.path.join(out, "ungauged_levels.csv"))["t001"]
        # the target's descriptors, which the model takes untransformed
        site = UngaugedSite(coords=np.array([50.0, 50.0]), covariates={"c1": 0.5, "c2": -0.2})
        result = trend_fit["result"]
        curves = [self._curves(ungauged_return_level(
            posterior, site, CONFIG["return_periods"], np.random.default_rng(CONFIG["seed"]),
            year=2010.0)) for posterior in (result, dataclasses.replace(result, t0=LINK.t0))]
        assert np.array_equal(levels, curves[0])
        assert not np.allclose(levels, curves[1], rtol=1e-9)

    def test_year_beyond_trend_bound_refused(self, trend_fit, tmp_path, capsys):
        # |delta| < delta0 keeps the location positive for every draw only
        # within 1 / delta0 = 125 years of the anchor, and a NaN year is no
        # year; a fit that omits t0 is anchored at 1975
        fitted = {**CONFIG, "trend": True, "mcmc": {"n_chains": 1, "n_iterations": 60,
                                                     "n_kept": 20}}
        cfg = tmp_path / "fit.json"
        cfg.write_text(json.dumps(fitted))
        fit = str(tmp_path / "fit")
        assert main(["fit", "--config", str(cfg), *trend_fit["data"], "--out", fit]) == 0
        for year, code in ((2100.0, 0), (2101.0, 2), (math.nan, 2)):
            query = tmp_path / f"q{year:.0f}.json"
            query.write_text(json.dumps({**fitted, "predict": {"year": year}}))
            for argv in _query_argvs(str(query), trend_fit["data"], fit, _targets(tmp_path),
                                     str(tmp_path / f"{year:.0f}")):
                capsys.readouterr()
                assert main(argv) == code, (argv[0], year)
                out = argv[argv.index("--out") + 1]
                if code == 0:
                    continue
                err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
                assert err["error"] == "ConfigError"
                # the loader refuses a NaN year as no number, the trend bound 2101
                named = ["'predict.year'"] if math.isnan(year) else [f"{year:g}", "1975"]
                assert all(word in err["message"] for word in named), err["message"]
                assert not os.path.exists(out)
        levels = np.loadtxt(os.path.join(tmp_path, "2100", "p", "return_levels.csv"),
                            delimiter=",", skiprows=1, usecols=(3, 4, 5))
        assert np.all(levels > 0.0)

    def test_query_t0_compared_as_anchor(self, pipeline, tmp_path, capsys):
        # the pipeline's fit omits t0, so its trend anchor is the link's t0;
        # a query that names that year asks for the same anchor
        query = {k: v for k, v in CONFIG.items() if k != "t0"}
        outs = {}
        for name, t0 in (("omitted", None), ("same", LINK.t0)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(query if t0 is None else {**query, "t0": t0}))
            outs[name] = str(tmp_path / name)
            assert main(["predict", "--config", str(cfg), *pipeline["data"],
                         "--fit", pipeline["fit"], "--out", outs[name]]) == 0
        assert (_read(os.path.join(outs["same"], "return_levels.csv"))
                == _read(os.path.join(outs["omitted"], "return_levels.csv")))
        capsys.readouterr()
        cfg = tmp_path / "other.json"
        cfg.write_text(json.dumps({**query, "t0": LINK.t0 + 15}))
        assert main(["predict", "--config", str(cfg), *pipeline["data"],
                     "--fit", pipeline["fit"], "--out", str(tmp_path / "other")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "'t0'" in err["message"]


class TestCv:
    def test_tables_and_determinism(self, pipeline):
        a = str(pipeline["root"] / "cv_a")
        b = str(pipeline["root"] / "cv_b")
        for out in (a, b):
            assert main(["cv", "--config", pipeline["cfg"], *pipeline["data"],
                         "--out", out]) == 0
        names = ("cv_within.csv", "cv_within_diff.csv",
                 "cv_out_of_site.csv", "cv_out_of_site_diff.csv")
        for name in names:
            assert _read(os.path.join(a, name)) == _read(os.path.join(b, name))
        with open(os.path.join(a, "cv_within.csv")) as fh:
            within = fh.read()
        assert "MLE" in within and "LGM-IID" in within
        with open(os.path.join(a, "cv_out_of_site.csv")) as fh:
            out_table = fh.read()
        assert "MLE" not in out_table

    def test_lgm_variants_take_priors_and_mesh(self, pipeline, tmp_path, monkeypatch):
        # the priors and mesh sections reach cv's latent structures, as they
        # reach fit's and select's
        built = []

        def keep(*args, _fn=spatgev.evaluate.build_structure, **kwargs):
            built.append(_fn(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(spatgev.evaluate, "build_structure", keep)
        priors = {"s0": 0.5, "rho0": 7.0, "eps0": 0.4, "sigma_beta": 3.0}
        mesh_options = {"interior_divisor": 8.0, "buffer_fraction": 0.3}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            **CONFIG, "priors": priors, "mesh": mesh_options,
            "mcmc": {"n_chains": 1, "n_iterations": 40, "n_kept": 10},
            "cv": {**CONFIG["cv"], "variants": ["LGM-IID", "LGM-FULL"]}}))
        assert main(["cv", "--config", str(cfg), *pipeline["data"],
                     "--out", str(tmp_path / "o")]) == 0
        assert [st.mesh is not None for st in built] == [False, True]
        for st in built:
            assert (st.s0, st.rho0, st.eps0, st.sigma_beta) == (0.5, 7.0, 0.4, 3.0)
        ds, _ = spatgev.cli._load_inputs(
            RunConfig.from_json(str(cfg)),
            spatgev.cli._build_parser().parse_args(
                ["cv", *pipeline["data"], "--out", "unused"]))
        expected = spatgev.spde.build_mesh(ds.sites, spatgev.spde.MeshOptions(**mesh_options))
        assert np.array_equal(built[1].mesh.points, expected.points)
        assert np.array_equal(built[1].mesh.triangles, expected.triangles)
        assert built[1].mesh.n_nodes != spatgev.spde.build_mesh(ds.sites).n_nodes

    def test_empty_variant_list(self, pipeline, tmp_path):
        bad = dict(CONFIG)
        bad["cv"] = {**CONFIG["cv"], "variants": []}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = main(["cv", "--config", str(cfg), *pipeline["data"],
                     "--out", str(tmp_path / "o")])
        assert code == 2


class TestAggregate:
    def test_curve_and_determinism(self, pipeline):
        a = str(pipeline["root"] / "agg_a")
        b = str(pipeline["root"] / "agg_b")
        for out in (a, b):
            assert main(["aggregate", "--config", pipeline["cfg"],
                         *pipeline["data"], "--fit", pipeline["fit"],
                         "--out", out]) == 0
        assert _read(os.path.join(a, "aggregate_levels.csv")) == \
            _read(os.path.join(b, "aggregate_levels.csv"))
        with open(os.path.join(a, "aggregate_levels.csv")) as fh:
            lines = fh.read().splitlines()[1:]
        levels = [float(line.split(",")[1]) for line in lines]
        assert levels[0] < levels[1]  # 10-year below 100-year
        with open(os.path.join(a, "aggregate_meta.json")) as fh:
            meta = json.load(fh)
        assert meta["tie_rule"] == "year-order"
        assert len(meta["stations"]) == 14

    def test_unknown_station(self, pipeline, tmp_path):
        bad = dict(CONFIG)
        bad["aggregate"] = {**CONFIG["aggregate"], "stations": ["nope"]}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = main(["aggregate", "--config", str(cfg), *pipeline["data"],
                     "--fit", pipeline["fit"], "--out", str(tmp_path / "o")])
        assert code == 2


def _declared_keys(cls=RunConfig, path=""):
    """(dotted path, declared type) of every key of the run configuration,
    walked from the fields of RunConfig and of each section's dataclass."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        key = f"{path}.{f.name}" if path else f.name
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _declared_keys(hints[f.name], key)
        else:
            yield key, hints[f.name]


SECTIONS = [f.name for f in dataclasses.fields(RunConfig)
            if dataclasses.is_dataclass(typing.get_type_hints(RunConfig)[f.name])]


def _nested(key: str, value) -> dict:
    """The config object that sets the dotted key to value."""
    for name in reversed(key.split(".")):
        value = {name: value}
    return value


def _config_surface():
    """(config, text the refusal names) for each declared key: a value of the
    wrong JSON type, an element of the wrong type for each list, and one
    unknown key per section."""
    cases = []
    for key, hint in _declared_keys():
        # the types a union admits; a list type is one kind
        kinds = ([hint] if typing.get_origin(hint) is list
                 else list(typing.get_args(hint)) or [hint])
        wrong = 5 if str in kinds else "x"
        cases.append(pytest.param(_nested(key, wrong), repr(key), id=key))
        if tuple in kinds:
            cases.append(pytest.param(_nested(key, [1.0, "x"]), repr(key), id=f"{key}.element"))
        if any(typing.get_origin(kind) is list for kind in kinds):
            cases.append(pytest.param(_nested(key, ["a", [1]]), repr(key), id=f"{key}.element"))
    for section in SECTIONS:
        cases.append(pytest.param({section: {"chains": 4}}, repr(f"{section}.chains"),
                                  id=f"{section}.chains"))
    return cases


class TestErrorSurface:
    def test_unknown_config_key(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"seeed": 1}')
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "seeed" in err["message"]

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["fit-sites", "--maxima", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"

    def test_duplicate_rows_exit_code(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("station,year,amax\nA,2000,1\nA,2000,2\n")
        code = main(["fit-sites", "--maxima", str(p),
                     "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("row", [b"A,1e999,2", b"A,2001,\xff2"])
    def test_unreadable_row_exit_code(self, tmp_path, capsys, row):
        # an overflowing year and a byte that is not UTF-8 are data errors
        p = tmp_path / "m.csv"
        p.write_bytes(b"station,year,amax\nA,2000,1\n" + row + b"\n")
        code = main(["fit-sites", "--maxima", str(p), "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert "m.csv:3" in err["message"]

    def test_short_record_names_station(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        lines = ["station,year,amax"]
        lines += [f"A001,{1980 + k},{float(v)!r}" for k, v in
                  enumerate(30.0 + 8.0 * rng.gumbel(size=20))]
        lines += [f"Z999,{2000 + k},{30.0 + k}" for k in range(3)]
        p = tmp_path / "m.csv"
        p.write_text("\n".join(lines) + "\n")
        code = main(["fit-sites", "--maxima", str(p), "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert "Z999" in err["message"]

    @staticmethod
    def _refusal(pipeline, tmp_path, capsys, monkeypatch, command, config) -> str:
        """The message of command's ConfigError on config, which must come
        before any work and leave no output directory."""
        def no_work(*args, **kwargs):
            raise AssertionError("work ran on a bad configuration")

        for module in (spatgev.cli, spatgev.evaluate):
            monkeypatch.setattr(module, "fit_all_sites", no_work)
        for name in ("_load_fit", "simulate_dataset"):
            monkeypatch.setattr(spatgev.cli, name, no_work)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        data = [] if command == "simulate" else pipeline["data"]
        if command in ("predict", "aggregate"):
            data = [*data, "--fit", pipeline["fit"]]
        code = main([command, "--config", str(cfg), *data, "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert not os.path.exists(tmp_path / "o")
        return err["message"]

    @pytest.mark.parametrize("command, config, key", [
        ("simulate", {"seed": "x"}, "seed"),
        ("fit", {"mcmc": {"n_chains": "2"}}, "mcmc.n_chains"),
        ("fit", {"mesh": {"interior_divisor": -1}, "spatial": {"psi": True}}, "mesh"),
        ("fit", {"priors": {"s0": "x"}, "spatial": {"psi": True}}, "priors.s0"),
        ("cv", {"cv": {"n_samples": "x"}}, "cv.n_samples"),
        ("aggregate", {"aggregate": {"n_blocks": "x"}}, "aggregate.n_blocks"),
        ("predict", {"predict": {"include_nugget": "no"}}, "predict.include_nugget"),
    ])
    def test_wrong_config_type_refused_before_work(self, pipeline, tmp_path, capsys,
                                                   monkeypatch, command, config, key):
        message = self._refusal(pipeline, tmp_path, capsys, monkeypatch, command, config)
        assert repr(key) in message

    @pytest.mark.parametrize("command, config", [
        ("fit", {"mcmc": {"n_kept": 0}}),
        ("cv", {"mcmc": {"n_kept": 0}}),
        ("aggregate", {"aggregate": {"n_bootstrap": 0}}),
        ("cv", {"cv": {"n_heldout": -1}}),
        ("cv", {"cv": {"n_eff_space": -1}}),
        ("cv", {"cv": {"n_eff_time": 0}}),
    ])
    def test_out_of_range_refused_before_work(self, pipeline, tmp_path, capsys,
                                              monkeypatch, command, config):
        message = self._refusal(pipeline, tmp_path, capsys, monkeypatch, command, config)
        ((section, values),) = config.items()
        ((name, _),) = values.items()
        assert repr(section) in message and name in message

    @pytest.mark.parametrize("command, config, key", [
        ("simulate", {"seed": -1}, "seed"),
        ("fit", {"seed": -1}, "seed"),
        ("fit", {"mcmc": {"seed": -1}}, "mcmc.seed"),
        ("select", {"selection": {"seed": -1}}, "selection.seed"),
        ("cv", {"cv": {"seed": -1}}, "cv.seed"),
        ("cv", {"mcmc": {"seed": -1}}, "mcmc.seed"),
        ("simulate", {"scenario": {"record_length": None, "record_length_range": [80, 30]}},
         "scenario.record_length_range"),
        ("simulate", {"scenario": {"record_length": None, "record_length_range": [30]}},
         "scenario.record_length_range"),
        ("simulate", {"scenario": {"domain_size": -5}}, "scenario.domain_size"),
        ("simulate", {"scenario": {"record_length": -3}}, "scenario.record_length"),
        ("simulate", {"scenario": {"record_length": 0}}, "scenario.record_length"),
        ("simulate", {"scenario": {"range_fraction": 0}}, "scenario.range_fraction"),
        ("simulate", {"scenario": {"xi_center": 0.7}}, "scenario.xi_center"),
        ("simulate", {"scenario": {"n_sites": 1_000_000}}, "scenario.n_sites"),
        ("simulate", {"scenario": {"n_covariates": -1, "beta_psi": [], "beta_tau": []}},
         "scenario.n_covariates"),
    ])
    def test_seed_or_scenario_out_of_range_refused_before_work(
            self, pipeline, tmp_path, capsys, monkeypatch, command, config, key):
        # each of these once reached the work, and ended in a traceback or
        # wrote stations without maxima
        message = self._refusal(pipeline, tmp_path, capsys, monkeypatch, command, config)
        section, _, name = key.rpartition(".")
        assert repr(section or name) in message and name in message

    @pytest.mark.parametrize("command, config, key", [
        ("predict", {"return_periods": [1e17]}, "return_periods"),
        ("predict", {"return_periods": [1.0]}, "return_periods"),
        ("predict", {"return_periods": []}, "return_periods"),
        ("predict", {"return_periods": [10 ** 400]}, "return_periods"),
        ("simulate", {"return_periods": [0.5]}, "return_periods"),
        ("aggregate", {"aggregate": {"periods": [1e17]}}, "aggregate.periods"),
        ("aggregate", {"aggregate": {"periods": [10.0, 0.5]}}, "aggregate.periods"),
        ("aggregate", {"aggregate": {"periods": []}}, "aggregate.periods"),
        ("predict", {"predict": {"stations": []}}, "predict.stations"),
        ("aggregate", {"aggregate": {"stations": []}}, "aggregate.stations"),
    ])
    def test_periods_and_stations_refused_at_load(self, pipeline, tmp_path, capsys,
                                                  monkeypatch, command, config, key):
        # periods at which 1 - 1/T is 1 in float64 once wrote inf and the
        # pool's maximum, an integer period beyond float64 ended in a
        # traceback, and an empty station list selected every station
        message = self._refusal(pipeline, tmp_path, capsys, monkeypatch, command, config)
        section, _, name = key.rpartition(".")
        assert repr(section or name) in message and name in message

    @pytest.mark.parametrize("command, config, key", [
        ("fit", {"priors": {"s0": math.nan}, "spatial": {"psi": True}}, "priors.s0"),
        ("fit", {"priors": {"s0": math.inf}, "spatial": {"psi": True}}, "priors.s0"),
        ("fit", {"mesh": {"interior_divisor": math.nan}, "spatial": {"psi": True}},
         "mesh.interior_divisor"),
        ("predict", {"predict": {"year": math.inf}}, "predict.year"),
        ("aggregate", {"aggregate": {"weights": [math.nan]}}, "aggregate.weights"),
    ])
    def test_non_finite_config_number_refused_before_work(self, pipeline, tmp_path, capsys,
                                                         monkeypatch, command, config, key):
        # Python's json reads NaN and Infinity; each of these once reached
        # the work and ended in a traceback, a failed sampler or NaN levels
        message = self._refusal(pipeline, tmp_path, capsys, monkeypatch, command, config)
        assert repr(key) in message

    @pytest.mark.parametrize("config, named", _config_surface())
    def test_config_surface_refused_before_work(self, pipeline, tmp_path, capsys,
                                                monkeypatch, config, named):
        # every declared key given a value of the wrong JSON type, every list
        # an element of the wrong type, and an unknown key in each section
        message = self._refusal(pipeline, tmp_path, capsys, monkeypatch, "fit", config)
        assert named in message

    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_non_finite_untransformed_descriptor_refused(self, pipeline, tmp_path,
                                                        capsys, command):
        # transform_descriptors is false: the columns go into the design as they are
        with open(os.path.join(pipeline["sim"], "sites.csv")) as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        row = lines[3].split(",")
        row[header.index("c2")] = "nan"
        lines[3] = ",".join(row)
        sites = tmp_path / "sites.csv"
        sites.write_text("\n".join(lines) + "\n")
        code = main([command, "--config", pipeline["cfg"], "--maxima", pipeline["data"][1],
                     "--sites", str(sites), "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert "c2" in err["message"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["fit", "select", "fit-sites"])
    def test_non_finite_coordinate_refused(self, pipeline, tmp_path, capsys, command, value):
        with open(os.path.join(pipeline["sim"], "sites.csv")) as fh:
            lines = fh.read().splitlines()
        row = lines[2].split(",")
        assert row[0] == "s002"
        row[lines[0].split(",").index("x")] = value
        lines[2] = ",".join(row)
        sites = tmp_path / "sites.csv"
        sites.write_text("\n".join(lines) + "\n")
        code = main([command, "--config", pipeline["cfg"], "--maxima", pipeline["data"][1],
                     "--sites", str(sites), "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert str(sites) in err["message"] and "s002" in err["message"]
        assert not os.path.exists(tmp_path / "o")

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit-sites"])  # --out is required
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


COMMANDS = ("simulate", "fit-sites", "select", "fit", "predict", "return-levels", "cv",
            "aggregate")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
FUZZED_KEYS = ([key for key, _ in _declared_keys()] + SECTIONS + ["extra"]
               + [f"{section}.extra" for section in SECTIONS])


@st.composite
def _fuzzed_configs(draw) -> dict:
    """A config setting a few declared, section or unknown keys to arbitrary
    JSON values."""
    config: dict = {}
    for key, value in draw(st.dictionaries(st.sampled_from(FUZZED_KEYS), JSON_VALUES,
                                           max_size=3)).items():
        *parents, last = key.split(".")
        node = config
        for name in parents:
            if not isinstance(node.get(name), dict):
                node[name] = {}
            node = node[name]
        node[last] = value
    return config


class WorkReached(Exception):
    """Raised by the first work call of a command: the config was accepted."""


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(COMMANDS), config=_fuzzed_configs(), refused=st.just(False))
@example(command="aggregate", config={"aggregate": {"stations": [[1]]}}, refused=True)
@example(command="predict", config={"predict": {"stations": [[1]]}}, refused=True)
@example(command="cv", config={"cv": {"variants": [["a"]]}}, refused=True)
@example(command="fit", config={"mcmc": {"n_kept": 0}}, refused=True)
@example(command="cv", config={"mcmc": {"n_kept": 0}}, refused=True)
@example(command="aggregate", config={"aggregate": {"n_bootstrap": 0}}, refused=True)
@example(command="cv", config={"cv": {"n_heldout": -1}}, refused=True)
@example(command="cv", config={"cv": {"n_eff_space": -1}}, refused=True)
@example(command="cv", config={"cv": {"n_eff_time": 0}}, refused=True)
@example(command="fit", config={"priors": {"s0": "x"}}, refused=True)
@example(command="cv", config={"cv": {"n_samples": "x"}}, refused=True)
def test_fuzzed_config_refused_or_reaches_work(command, config, refused, tmp_path,
                                               monkeypatch, capsys):
    # every command either refuses a config with exit 2 and no output
    # directory, or reaches its first work call; never a traceback.  The
    # explicit examples once got past the loader and must be refused.
    def reached(*args, **kwargs):
        raise WorkReached

    for name in ("simulate_dataset", "_load_inputs", "_load_fit"):
        monkeypatch.setattr(spatgev.cli, name, reached)
    capsys.readouterr()
    out = tmp_path / "o"
    argv = [command, "--config", json.dumps(config), "--out", str(out)]
    if command in ("predict", "return-levels", "aggregate"):
        argv += ["--fit", str(tmp_path / "fit")]
    try:
        code = main(argv)
    except WorkReached:
        assert not refused, f"{config} reached the work of {command}"
        return
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


class TestSelect:
    def test_selection_artifacts(self, pipeline, tmp_path):
        cfg = dict(CONFIG)
        cfg["selection"] = {"n_folds": 5, "grid_size": 4}
        cfg_path = tmp_path / "sel.json"
        cfg_path.write_text(json.dumps(cfg))
        out = str(tmp_path / "sel")
        assert main(["select", "--config", str(cfg_path), *pipeline["data"],
                     "--out", out]) == 0
        with open(os.path.join(out, "selection.json")) as fh:
            summary = json.load(fh)
        assert set(summary) == {"psi", "tau", "phi"}
        for entry in summary.values():
            assert isinstance(entry["chosen"], list)
            assert isinstance(entry["spatial"], bool)
        with open(os.path.join(out, "selection.csv")) as fh:
            header = fh.readline().rstrip()
        assert header == "parameter,step,added,cv_score"


def test_import_leaves_out_unused_scipy_modules(tmp_path):
    # scipy.stats, scipy.optimize and the worker pool's multiprocessing load
    # only inside the functions using them
    code = ("import sys, spatgev.cli; "
            "print([m for m in ('scipy.stats', 'scipy.optimize', 'multiprocessing')"
            " if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(spatgev.cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
    # nor does the max step load scipy.optimize; one core keeps the fits in
    # the process that is checked
    code = "\n".join([
        "import os, sys",
        "import numpy as np",
        "from spatgev.site_fit import fit_all_sites",
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
        "rng = np.random.default_rng(5)",
        "years = np.arange(1960.0, 2000.0)",
        "for trend in (False, True):",
        "    fit_all_sites([(years, 30.0 + 8.0 * rng.gumbel(size=40)) for _ in range(3)],",
        "                  trend=trend)",
        "print('scipy.optimize' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
    # nor does cv with its default variants, RSM among them; the config is
    # the CI console-script step's
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 1, "transform_descriptors": False,
        "scenario": {"n_sites": 8, "record_length": 30},
        "mcmc": {"n_chains": 1, "n_iterations": 40, "n_kept": 10},
        "selection": {"n_folds": 4},
        "cv": {"min_start_year": 1990, "n_heldout": 2, "n_samples": 200}}))
    sim, cv = str(tmp_path / "sim"), str(tmp_path / "cv")
    code = "\n".join([
        "import os, sys",
        "from spatgev.cli import main",
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
        f"assert main(['simulate', '--config', {str(cfg)!r}, '--out', {sim!r}]) == 0",
        f"assert main(['cv', '--config', {str(cfg)!r}, '--out', {cv!r},",
        f"             '--maxima', {os.path.join(sim, 'maxima.csv')!r},",
        f"             '--sites', {os.path.join(sim, 'sites.csv')!r}]) == 0",
        "print('scipy.optimize' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.strip() == "False"
    assert not os.path.exists(os.path.join(cv, "cv_failures.json"))
    with open(os.path.join(cv, "cv_within.csv")) as fh:
        models = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
    assert models == ["CONST", "MLE", "RSM", "LGM-IID", "LGM-COV", "LGM-FULL"]
