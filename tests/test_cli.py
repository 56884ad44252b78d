"""End-to-end tests of the command line surface.

Commands run in-process through cli.main so exit codes and stderr can be
asserted directly.  A shared pipeline fixture keeps the expensive steps
(simulate + fit) to one run.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import spatgev.cli
import spatgev.spde
from spatgev.cli import main
from spatgev.dataio import RunConfig
from spatgev.dataio import _SCENARIO_KEYS
from spatgev.simulate import Scenario

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
    built = []
    with pytest.MonkeyPatch.context() as mp:
        build = spatgev.cli.build_structure

        def keep_structure(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        mp.setattr(spatgev.cli, "build_structure", keep_structure)
        assert main(["fit", "--config", str(cfg), *data, "--out", fit]) == 0
    return {"root": root, "cfg": str(cfg), "sim": sim, "fit": fit, "data": data,
            "structure": built[-1]}


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

    def test_scenario_schema_matches_dataclass(self):
        assert _SCENARIO_KEYS == {f.name for f in dataclasses.fields(Scenario)}


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
        for name in ("max_step.csv", "theta_draws.csv", "theta_summary.csv",
                     "eta_draws.csv", "nu_draws.csv", "latent_summary.csv",
                     "model.json", "manifest.json"):
            assert os.path.exists(os.path.join(fit, name))
        with open(os.path.join(fit, "model.json")) as fh:
            model = json.load(fh)
        manifest = _manifest_without_timestamp(os.path.join(fit, "manifest.json"))
        for name in ("model.json", "max_step.csv", "theta_draws.csv", "theta_summary.csv",
                     "eta_draws.csv", "nu_draws.csv"):
            digest = hashlib.sha256(_read(os.path.join(fit, name))).hexdigest()
            assert manifest["outputs"][name] == digest
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

    def test_rerun_byte_identical(self, pipeline):
        out2 = str(pipeline["root"] / "fit2")
        assert main(["fit", "--config", pipeline["cfg"], *pipeline["data"],
                     "--out", out2]) == 0
        for name in ("max_step.csv", "theta_draws.csv", "eta_draws.csv",
                     "nu_draws.csv", "model.json"):
            assert _read(os.path.join(pipeline["fit"], name)) == \
                _read(os.path.join(out2, name))


class TestFitDirectory:
    """Queries read the max step from the fit directory and never rerun it."""

    def _copy_fit(self, pipeline, tmp_path):
        fit = str(tmp_path / "fit_copy")
        shutil.copytree(pipeline["fit"], fit)
        return fit

    def test_queries_do_not_rerun_max_step(self, pipeline, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the max step ran again")

        monkeypatch.setattr(spatgev.cli, "fit_all_sites", refuse)
        targets = tmp_path / "targets.csv"
        targets.write_text("station,x,y,c1,c2\nt001,50.0,50.0,0.5,-0.2\n")
        common = ["--config", pipeline["cfg"], *pipeline["data"], "--fit", pipeline["fit"]]
        assert main(["predict", *common, "--out", str(tmp_path / "p")]) == 0
        assert main(["return-levels", *common, "--targets", str(targets),
                     "--out", str(tmp_path / "r")]) == 0
        assert main(["aggregate", *common, "--out", str(tmp_path / "a")]) == 0

    def test_structure_rebuilt_bit_for_bit(self, pipeline):
        cfg = RunConfig.from_json(pipeline["cfg"])
        args = spatgev.cli._build_parser().parse_args(
            ["predict", "--config", pipeline["cfg"], *pipeline["data"],
             "--fit", pipeline["fit"], "--out", "unused"])
        result, _, _ = spatgev.cli._load_fit(pipeline["fit"], cfg, args)
        built = pipeline["structure"]
        assert np.array_equal(result.structure.eta_hat, built.eta_hat)
        assert np.array_equal(result.structure.prec_blocks, built.prec_blocks)

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
        path = os.path.join(fit, "eta_draws.csv")
        with open(path) as fh:
            lines = fh.read().splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[0] = repr(float(cells[0]) + 5.0)
        lines[1] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("".join(lines))
        code = main(["predict", "--config", pipeline["cfg"], *pipeline["data"],
                     "--fit", fit, "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "DataError"
        assert "eta_draws.csv" in err["message"]

    def test_queries_skip_field_eigenproblem(self, pipeline, tmp_path, monkeypatch):
        # a fit with a field needs the eigenvalues for its likelihood; the
        # queries on it evaluate no likelihood and must not compute them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG, "spatial": {"psi": True},
                                   "mcmc": {"n_chains": 1, "n_iterations": 40,
                                            "n_kept": 10}}))
        fit = str(tmp_path / "fit")
        common = ["--config", str(cfg), *pipeline["data"]]
        assert main(["fit", *common, "--out", fit]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("field eigenvalues computed")

        monkeypatch.setattr(spatgev.spde, "field_eigenvalues", refuse)
        targets = tmp_path / "targets.csv"
        targets.write_text("station,x,y,c1,c2\nt001,50.0,50.0,0.5,-0.2\n")
        assert main(["predict", *common, "--fit", fit, "--out", str(tmp_path / "p")]) == 0
        assert main(["return-levels", *common, "--fit", fit, "--targets", str(targets),
                     "--out", str(tmp_path / "r")]) == 0
        assert main(["aggregate", *common, "--fit", fit, "--out", str(tmp_path / "a")]) == 0

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

    def test_missing_covariate_in_targets(self, pipeline, tmp_path):
        targets = tmp_path / "targets.csv"
        targets.write_text("station,x,y,c2\nt001,50.0,50.0,-0.2\n")
        code = main(["return-levels", "--config", pipeline["cfg"],
                     *pipeline["data"], "--fit", pipeline["fit"],
                     "--targets", str(targets), "--out", str(tmp_path / "o")])
        assert code == 2


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

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit-sites"])  # --out is required
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


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


def test_import_leaves_out_unused_scipy_modules():
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
