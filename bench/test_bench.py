"""Self-test of the benchmark: toy-size runs of every workload with every check.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

It is not part of the package's test suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

MCMC = {"n_chains": 2, "n_iterations": 40, "n_kept": 10}
TOY = {
    "paper60": {"n_sites": 15, "config": {
        "mcmc": MCMC, "aggregate": {"n_blocks": 10, "pool_size": 500, "n_bootstrap": 20}}},
    "select_cv60": {"n_sites": 20, "config": {
        "mcmc": MCMC, "selection": {"grid_size": 2},
        "cv": {"n_samples": 500, "n_heldout": 3}}},
}


def toy_spec(name: str) -> dict:
    spec = copy.deepcopy(run.WORKLOADS[name])
    spec["scenario"]["n_sites"] = TOY[name]["n_sites"]
    spec["config"].update(TOY[name]["config"])
    if spec["targets"]:
        spec["targets"] = 2
    return spec


def declared(kind: str) -> set:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_toy_traced_run_passes_every_check(name):
    result, table, problems = run.run(name, seed=3, seconds=0, trace=True,
                                      spec=toy_spec(name))
    assert problems == []
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == declared("per_layer")
    assert table["repetitions"][0] == 1
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.unaccounted_s"] < 0.05 * metrics["trace.traced_s"]


def test_toy_untraced_run_reports_end_to_end_metrics():
    result, _, problems = run.run("paper60", seed=4, seconds=0, trace=False,
                                  spec=toy_spec("paper60"))
    assert problems == [] and result["correct"]
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_oracle_check_catches_a_small_likelihood_error(monkeypatch):
    import spatgev.latent

    exact = spatgev.latent.marginal_loglik
    monkeypatch.setattr(spatgev.latent, "marginal_loglik",
                        lambda st, theta: exact(st, theta) + 1e-3)
    result, _, problems = run.run("paper60", seed=5, seconds=0, trace=False,
                                  spec=toy_spec("paper60"))
    assert not result["correct"] and result["failed"] == 1
    assert problems[0].startswith("marginal_loglik oracle")
