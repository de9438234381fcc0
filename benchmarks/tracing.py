"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the groupsparse modules (and the
methods of MarginalFactor) from outside the package, at every module that
binds the name, so that calls made through any import path are seen.  Each
call becomes a span (name, start, end, parent) kept in flat in-memory
arrays; counters are updated at the same boundaries.  `per_layer` turns one
traced pass into the per-layer metrics listed in BENCHMARK.json.

Wrappers pass arguments and return values through untouched, so a traced
fit computes bit-identical results (the benchmark checks this).
"""

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# MarginalFactor query methods; their spans make up model.factor.query_s
FACTOR_QUERIES = ("logdet", "solve", "quad", "gtw_y", "gtwg", "block_traces")


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = Counter()    # counters updated by the hooks
        self.selected = set()      # (fit_hglasso span, forward_select result)
        self.gtwg_cached = False   # MarginalFactor.gtwg found its cache set
        self._restore = []

    def begin(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_idx.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def innermost(self, name):
        """Index of the innermost open span called `name`, or -1."""
        for idx in reversed(self._stack):
            if self.names[self.name_idx[idx]] == name:
                return idx
        return -1

    def wrap(self, name, fn, before=None, after=None):
        """Span-recording stand-in for fn; hooks see the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if after is not None:
                after(tracer, out, args, kwargs)
            return out
        return traced

    # ------------------------------------------------------------
    # installation
    # ------------------------------------------------------------

    def install(self):
        """Wrap every entry of LAYERS wherever groupsparse binds it."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "groupsparse" or n.startswith("groupsparse.")]
        for module, attr, name, before, after in LAYERS:
            orig = getattr(importlib.import_module(module), attr)
            traced = self.wrap(name, orig, before, after)
            for mod in mods:
                if vars(mod).get(attr) is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, traced)
        from groupsparse.model import MarginalFactor
        for meth in ("__init__",) + FACTOR_QUERIES:
            orig = vars(MarginalFactor)[meth]
            name = "model.factor." + ("build" if meth == "__init__" else meth)
            self._restore.append((MarginalFactor, meth, orig))
            setattr(MarginalFactor, meth,
                    self.wrap(name, orig,
                              _gtwg_before if meth == "gtwg" else None,
                              _factor_after(meth)))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------
    # output
    # ------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_idx, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def save(self, path):
        name_idx, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            name_idx=name_idx, parent=parent, start=start,
                            end=end)


# ============================================================
# hooks
# ============================================================

def _pqn_before(tracer, args, kwargs):
    # the objective closure gets its own span so that PQN self time
    # excludes the factorizations it triggers
    fun_grad = tracer.wrap("pqn.fun_grad", args[0])
    return (fun_grad,) + tuple(args[1:]), kwargs


def _pqn_after(tracer, res, args, kwargs):
    tracer.counts["pqn.iterations"] += res.iterations
    tracer.counts["pqn.unconverged"] += not res.converged


def _lasso_after(tracer, res, args, kwargs):
    config = args[2] if len(args) > 2 else kwargs["config"]
    tracer.counts["convex.lasso.sweeps"] += res.iterations
    tracer.counts["convex.lasso.capped"] += (
        not res.converged and res.iterations >= config.max_iter)


def _glasso_after(tracer, res, args, kwargs):
    tracer.counts["convex.glasso.sweeps"] += res.iterations


def _forward_select_after(tracer, out, args, kwargs):
    fit = tracer.innermost("selection.fit_hglasso")
    tracer.selected.add((fit, tuple(out[0])))


def _rhs(B):
    return B.shape[1] if np.ndim(B) == 2 else 1


def _factor_flops(meth, fac, args, cached):
    """Floating-point operations of one MarginalFactor call, computed from
    the shapes: Cholesky a^3/3, a triangular-solve pair 2a^2 per right-hand
    side, an (a x b)(b x c) product 2abc.  Work done by a nested wrapped
    call (dense quad/gtw_y/gtwg call solve) is counted there, not here."""
    n, m = fac.design.n, fac.design.m
    if meth == "__init__":
        if fac.lowrank:
            return m ** 3 / 3 + 3 * m * m
        return 2 * n * n * m + n ** 3 / 3
    if meth == "solve":
        c = _rhs(args[0])
        if fac.lowrank:
            return 4 * n * m * c + 2 * m * m * c + n * m
        return 2 * n * n * c
    if meth == "quad":
        return 2 * n * m + 2 * m * m if fac.lowrank else 2 * n
    if meth == "gtw_y":
        return 2 * n * m + 4 * m * m if fac.lowrank else 2 * n * m
    if meth == "gtwg":
        if cached:
            return 0
        return 4 * m ** 3 if fac.lowrank else 2 * n * m * m
    return 0


def _gtwg_before(tracer, args, kwargs):
    tracer.gtwg_cached = args[0]._gtwg is not None
    return args, kwargs


def _factor_after(meth):
    def after(tracer, out, args, kwargs):
        fac, rest = args[0], args[1:]
        tracer.counts["model.factor.flop"] += _factor_flops(
            meth, fac, rest, tracer.gtwg_cached)
        if meth == "__init__":
            tracer.counts["model.factor.lowrank.count" if fac.lowrank
                          else "model.factor.dense.count"] += 1
            if tracer.innermost("selection.forward_select") >= 0:
                tracer.counts["selection.forward_select.factor_count"] += 1
    return after


# (module, attribute, span name, before hook, after hook); each function is
# wrapped at every groupsparse module that binds the same object
LAYERS = [
    ("groupsparse.model", "posterior_mean", "model.posterior_mean",
     None, None),
    ("groupsparse.pqn", "minimize_pqn", "pqn.minimize", _pqn_before,
     _pqn_after),
    ("groupsparse.convex", "solve_lasso", "convex.lasso", None, _lasso_after),
    ("groupsparse.convex", "solve_glasso", "convex.glasso", None,
     _glasso_after),
    ("groupsparse.convex", "solve_mkl_lambda", "convex.mkl", None, None),
    ("groupsparse.hglasso", "solve_hgl_pqn", "hglasso.pqn", None, None),
    ("groupsparse.selection", "fit_hglasso", "selection.fit_hglasso",
     None, None),
    ("groupsparse.selection", "forward_select", "selection.forward_select",
     None, _forward_select_after),
    ("groupsparse.selection", "estimate_kappa", "selection.kappa", None, None),
    ("groupsparse.selection", "estimate_sigma2_ls", "selection.sigma2",
     None, None),
    ("groupsparse.experiments", "gen_problem", "experiments.gen_problem",
     None, None),
    ("groupsparse.cli", "main", "cli.main", None, None),
    ("groupsparse.cli", "read_csv_matrix", "cli.read_csv", None, None),
]


# ============================================================
# per-layer metrics
# ============================================================

def per_layer(tracer, problems):
    """Per-layer metrics of one traced pass, per problem fitted.

    Counts and seconds are totals over the pass divided by `problems`, so
    they read the same whatever the number of problems a run reached.
    Self time is a span's duration minus the durations of its direct
    children (single-threaded, so children never overlap).
    """
    name_idx, parent, start, end = tracer.arrays()
    dur = end - start
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                        minlength=dur.size)
    self_s = dur - child
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return name_idx == ids.get(name, -1)

    def count(name):
        return int(np.count_nonzero(mask(name)))

    def total(name, of=dur):
        return float(of[mask(name)].sum())

    c = tracer.counts
    per = 1.0 / problems
    query = np.isin(name_idx, [ids[q] for q in
                               ("model.factor." + m for m in FACTOR_QUERIES)
                               if q in ids])
    # library fit inside cli.main: the fit_hglasso spans under a main span
    main = mask("cli.main")
    fit_in_main = mask("selection.fit_hglasso") & (parent >= 0)
    fit_in_main &= np.isin(parent, np.nonzero(main)[0])
    pqn_iters = c["pqn.iterations"]
    fs_calls = count("selection.forward_select")
    out = {
        "model.factor.count": (count("model.factor.build") * per, "count"),
        "model.factor.dense.count": (c["model.factor.dense.count"] * per,
                                     "count"),
        "model.factor.lowrank.count": (c["model.factor.lowrank.count"] * per,
                                       "count"),
        "model.factor.build_s": (total("model.factor.build") * per, "s"),
        "model.factor.query_s": (float(self_s[query].sum()) * per, "s"),
        "model.factor.gflop_computed": (c["model.factor.flop"] * 1e-9 * per,
                                        "GFLOP"),
        "model.posterior_mean.count": (count("model.posterior_mean") * per,
                                       "count"),
        "model.posterior_mean.s": (total("model.posterior_mean") * per, "s"),
        "pqn.solves": (count("pqn.minimize") * per, "count"),
        "pqn.iterations": (pqn_iters * per, "count"),
        "pqn.fun_grad_evals": (count("pqn.fun_grad") * per, "count"),
        "pqn.evals_per_iter": (count("pqn.fun_grad") / pqn_iters
                               if pqn_iters else 0.0, "ratio"),
        "pqn.unconverged": (c["pqn.unconverged"] * per, "count"),
        "pqn.self_s": (total("pqn.minimize", self_s) * per, "s"),
        "convex.lasso.solves": (count("convex.lasso") * per, "count"),
        "convex.lasso.sweeps": (c["convex.lasso.sweeps"] * per, "count"),
        "convex.lasso.capped": (c["convex.lasso.capped"] * per, "count"),
        "convex.lasso.s": (total("convex.lasso") * per, "s"),
        "convex.glasso.sweeps": (c["convex.glasso.sweeps"] * per, "count"),
        "convex.glasso.s": (total("convex.glasso") * per, "s"),
        "convex.mkl.solves": (count("convex.mkl") * per, "count"),
        "convex.mkl.s": (total("convex.mkl") * per, "s"),
        "hglasso.pqn.solves": (count("hglasso.pqn") * per, "count"),
        "hglasso.pqn.s": (total("hglasso.pqn") * per, "s"),
        "selection.forward_select.calls": (fs_calls * per, "count"),
        "selection.forward_select.s": (total("selection.forward_select")
                                       * per, "s"),
        "selection.forward_select.factor_count": (
            c["selection.forward_select.factor_count"] * per, "count"),
        "selection.distinct_set_ratio": (len(tracer.selected) / fs_calls
                                         if fs_calls else 0.0, "ratio"),
        "selection.kappa.s": (total("selection.kappa") * per, "s"),
        "selection.sigma2.s": (total("selection.sigma2") * per, "s"),
        "experiments.gen_problem.s": (total("experiments.gen_problem") * per,
                                      "s"),
        "cli.read_csv.s": (total("cli.read_csv") * per, "s"),
        "cli.overhead_s": ((float(dur[main].sum()) - float(dur[fit_in_main]
                                                           .sum())) * per,
                           "s"),
    }
    return out
