"""The forked-worker map: order, placement, errors and clean-up."""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

from spatgev import _workers
from spatgev._workers import run_indexed
from spatgev.cli import main
from spatgev.errors import DataError


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def one_core(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _square_and_pid(i):
    return i * i, os.getpid()


def test_results_in_index_order_from_workers(two_cores):
    out = run_indexed(_square_and_pid, 7)
    assert [v for v, _ in out] == [i * i for i in range(7)]
    assert os.getpid() not in {pid for _, pid in out}
    assert multiprocessing.active_children() == []


def test_one_core_runs_in_the_caller(one_core):
    out = run_indexed(_square_and_pid, 4)
    assert out == [(i * i, os.getpid()) for i in range(4)]


def test_single_task_runs_in_the_caller(two_cores):
    assert run_indexed(_square_and_pid, 1) == [(0, os.getpid())]
    assert run_indexed(_square_and_pid, 0) == []


def test_closure_state_reaches_the_workers(two_cores):
    # the task is inherited through the fork, not pickled
    table = {k: object() for k in range(3)}
    assert run_indexed(lambda i: id(table[i]), 3) == [id(table[i]) for i in range(3)]


def test_lowest_failing_index_is_raised(two_cores):
    def task(i):
        if i in (2, 5):
            raise DataError(f"task {i}")
        return i

    with pytest.raises(DataError, match="task 2"):
        run_indexed(task, 6)
    assert multiprocessing.active_children() == []


def test_nested_call_in_a_worker_runs_serially(two_cores):
    def inner(i):
        return _workers._in_worker, os.getpid()

    def outer(i):
        return run_indexed(inner, 2)

    for pairs in run_indexed(outer, 2):
        (flag_a, pid_a), (flag_b, pid_b) = pairs
        assert flag_a and flag_b and pid_a == pid_b != os.getpid()


def test_a_dead_worker_raises_instead_of_hanging(two_cores):
    def task(i):
        if i == 1:
            os._exit(1)
        return i

    with pytest.raises(BrokenProcessPool):
        run_indexed(task, 4)
    assert multiprocessing.active_children() == []


_PROBE = """
import json, os, sys
import spatgev.cli, spatgev.latent, spatgev.selection, spatgev.site_fit

new_imports = []

def probe(task, n):
    # the serial loop, recording the modules the tasks import: a forked
    # worker would import each of them again
    before = set(sys.modules)
    out = [task(i) for i in range(n)]
    new_imports.append(sorted(set(sys.modules) - before))
    return out

for module in (spatgev.site_fit, spatgev.latent, spatgev.selection):
    module.run_indexed = probe
root = sys.argv[1]
data = ["--maxima", os.path.join(root, "sim", "maxima.csv"),
        "--sites", os.path.join(root, "sim", "sites.csv")]
codes = [spatgev.cli.main([command, "--config", os.path.join(root, "cfg.json"), *data,
                           "--out", os.path.join(root, command)])
         for command in ("select", "fit")]
print(json.dumps([codes, new_imports]))
"""


def test_tasks_import_nothing_the_caller_has_not(tmp_path):
    # a lazy import is a lazy cache: select, fit and their max steps import
    # what their tasks use before run_indexed forks, so no worker imports it;
    # the data come from another process, since simulating imports scipy
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 2, "transform_descriptors": False, "spatial": {"psi": True},
        "scenario": {"n_sites": 14, "record_length": 30},
        "selection": {"n_folds": 3, "grid_size": 2},
        "mcmc": {"n_chains": 2, "n_iterations": 40, "n_kept": 10}}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
    src = os.path.dirname(os.path.dirname(_workers.__file__))
    out = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path)],
                         capture_output=True, text=True, check=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": src})
    codes, new_imports = json.loads(out.stdout.strip().splitlines()[-1])
    assert codes == [0, 0]
    # the max step and selection of select, then the max step and chains of fit
    assert new_imports == [[], [], [], []]
