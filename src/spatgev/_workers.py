"""Independent, deterministic tasks in forked worker processes.

run_indexed(task, n) returns [task(0), ..., task(n - 1)].  When the process
may use more than one core it computes them in a pool of forked workers, one
per core and at most n.  It runs them in order in the calling process when
one core is allowed, inside a worker, and where the platform has no CPU
affinity API (macOS and Windows, where fork is unsafe or missing).  Limit
the cores with the process affinity: taskset -c 0 runs everything serially.

Workers inherit the task through a module global set before the fork, so a
closure over arrays, structures and caches needs no pickling; only the index
and the result cross the pipe.  A task that keeps its own RNG therefore gives
the same bits in a worker as in the serial loop.  Fill any lazy cache the
tasks share before calling, or every worker computes it again and the caller
never sees it.  Imports count as such caches: scipy, and numpy submodules such
as numpy.random, load on first use, so import what the tasks use before
calling, or every worker imports it again.  fork, not spawn: a spawned worker
would import the package again (about 0.2 s for the CLI's modules and 0.3 s
more for the scipy.sparse and scipy.linalg.lapack that factoring tasks use:
medians of 15 on a shared 2-vCPU x86-64 host, Python 3.11, numpy 2.4, scipy
1.17) and need every task pickled.
The package starts no threads, and it sets BLAS to one thread unless the
user chose a count (spatgev/__init__.py), so the fork copies no lock that
another thread holds and each worker keeps to its core.

An exception raised by task(k) is raised again in the caller, and when
several tasks fail it is the one with the lowest index, as in the serial
loop.  A worker that dies (killed, out of memory) raises BrokenProcessPool
instead of leaving the caller waiting.  The pool's processes are joined
before run_indexed returns or raises.
"""

from __future__ import annotations

import os

__all__ = ["run_indexed"]

_task = None  # the task of the pool being forked, inherited by its workers
_in_worker = False


def _mark_worker() -> None:
    global _in_worker
    _in_worker = True


def _run_task(i: int):
    return _task(i)


def _n_cores() -> int:
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def run_indexed(task, n: int) -> list:
    """[task(0), ..., task(n - 1)], in forked workers when cores allow."""
    global _task
    n_workers = min(n, _n_cores())
    if n_workers <= 1 or _in_worker:
        return [task(i) for i in range(n)]
    # imported here: commands that never fork should not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _task = task
    try:
        with ProcessPoolExecutor(n_workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_mark_worker) as pool:
            # map yields in index order, so the first exception raised is the
            # lowest failing index's; the tasks after it are cancelled
            return list(pool.map(_run_task, range(n)))
    finally:
        _task = None
