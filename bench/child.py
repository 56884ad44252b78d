"""Child process that runs one ``spatgev`` command for the benchmark.

Usage: python bench/child.py [--trace SPANS.json] [--dump STRUCTURE.pkl] -- <spatgev args>

The command runs through ``spatgev.cli.main``, the function behind the
``spatgev`` console script.  When it returns or raises, the child prints
``DONE <exit code>`` on stdout, so the parent's timer stops there and what
follows (writing spans, pickling the latent structure) stays out of the timed
region.

With ``--trace`` the public functions of each layer are wrapped before the
command starts.  Every wrapper is installed wherever a module of the package
binds the function's name, so calls through ``from .x import f`` are seen too.
A wrapper records a span (id, parent id, name, start, end, attributes) in an
in-memory list; the list is written as JSON after ``DONE``.  ``site_loglik``
runs hundreds of times per site, so it gets a call counter and no span.

With ``--dump`` the ``LatentStructure`` that a ``fit`` command builds is
pickled after ``DONE``, for the benchmark's dense-matrix oracle.
"""

from __future__ import annotations

import functools
import importlib
import json
import pickle
import sys
import time

PACKAGE = "spatgev"
MODULES = ("cli", "dataio", "site_fit", "_sparse", "spde", "latent",
           "selection", "predict", "copula", "evaluate")

# (module that defines it, function name) for every function given a span
FUNCTIONS = (
    ("cli", "_load_fit"),
    ("dataio", "read_maxima_csv"), ("dataio", "read_descriptors_csv"),
    ("dataio", "group_maxima"), ("dataio", "write_csv_atomic"),
    ("dataio", "write_json_atomic"),
    ("site_fit", "fit_all_sites"), ("site_fit", "fit_site"),
    ("spde", "build_mesh"), ("spde", "fem_matrices"), ("spde", "field_eigenvalues"),
    ("spde", "projector"), ("spde", "precision_matrix"),
    ("latent", "build_structure"), ("latent", "marginal_loglik"),
    ("latent", "run_mcmc"), ("latent", "sample_latent"), ("latent", "smooth_step"),
    ("selection", "select_all"), ("selection", "forward_select"),
    ("selection", "cv_score"),
    ("predict", "return_level"), ("predict", "ungauged_return_level"),
    ("predict", "posterior_predictive"),
    ("copula", "historical_block"), ("copula", "grow_samples"),
    ("copula", "aggregate_return_levels"),
    ("evaluate", "make_cv_plan"), ("evaluate", "run_cv"), ("evaluate", "fit_const"),
    ("evaluate", "fit_mle"), ("evaluate", "fit_rsm"), ("evaluate", "kde_density"),
)
# (module, class, method) wrapped on the class itself
METHODS = (
    ("latent", "LatentStructure", "__init__"),
    ("latent", "LatentStructure", "q_nu"),
    ("_sparse", "SymmetricFactor", "__init__"),
)
COUNTED = (("site_fit", "site_loglik"),)


def _span_name(module: str, name: str) -> str:
    return f"{module.lstrip('_')}.{name}"


def _attrs(name: str, args, result) -> dict | None:
    """Facts about a call that the benchmark reports beside its duration."""
    if name == "latent.marginal_loglik":
        return {"neg_inf": int(result == float("-inf"))}
    if name == "latent.sample_latent":
        return {"draws": int(result[0].shape[0])}
    if name == "latent.run_mcmc":
        return {"accept_rate": float(result.accept_rate.mean()),
                "rhat_max": float(result.rhat.max()), "ess_min": float(result.ess.min())}
    if name == "site_fit.fit_site":
        return {"converged": int(result.converged), "restarts": int(result.n_restarts),
                "repaired": int(result.hessian_repaired)}
    if name == "sparse.SymmetricFactor.__init__":
        # nnz of SuperLU's L + U; SymmetricFactor has no public accessor
        return {"nnz": int(args[0]._lu.nnz)}
    if name == "spde.build_mesh":
        return {"n_nodes": int(result.n_nodes)}
    return None


class Tracer:
    """Spans and counters of one command, kept in memory until the end."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = [-1]

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = [sid, parent, name, t0, time.monotonic(), {"raised": 1}]
                stack.pop()
                raise
            t1 = time.monotonic()
            stack.pop()
            spans[sid] = [sid, parent, name, t0, t1, _attrs(name, args, result)]
            return result
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, modules: dict) -> None:
        def patch_everywhere(original, replacement):
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)

        for mod_name, fn_name in FUNCTIONS:
            fn = getattr(modules[mod_name], fn_name)
            patch_everywhere(fn, self.span(_span_name(mod_name, fn_name), fn))
        for mod_name, fn_name in COUNTED:
            fn = getattr(modules[mod_name], fn_name)
            patch_everywhere(fn, self.counter(_span_name(mod_name, fn_name), fn))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            name = _span_name(mod_name, f"{cls_name}.{meth}")
            setattr(cls, meth, self.span(name, getattr(cls, meth)))

    def run_root(self, fn, *args):
        """Run the command itself as the root span ``cli.main``."""
        return self.span("cli.main", fn)(*args)

    def write(self, path: str, t_main: float) -> None:
        with open(path, "w") as fh:
            json.dump({"t_main": t_main, "spans": self.spans, "counts": self.counts}, fh)


def main(argv: list) -> int:
    sep = argv.index("--")
    opts, command = argv[:sep], argv[sep + 1:]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    dump_path = opts[opts.index("--dump") + 1] if "--dump" in opts else None

    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    cli = modules["cli"]
    tracer = None
    if trace_path:
        tracer = Tracer()
        tracer.install(modules)
    built = []
    if dump_path:
        build = cli.build_structure

        def keep_structure(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]
        cli.build_structure = keep_structure

    t_main = time.monotonic()
    code = 1  # stays 1 if the command raises instead of returning
    try:
        code = tracer.run_root(cli.main, command) if tracer else cli.main(command)
    finally:
        sys.stdout.write(f"DONE {code}\n")
        sys.stdout.flush()
        if tracer:
            tracer.write(trace_path, t_main)
        if dump_path and built and code == 0:
            with open(dump_path, "wb") as fh:
                pickle.dump(built[-1], fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
