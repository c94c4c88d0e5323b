"""Span tracer around the public entry points of fibresplit's layers.

Nothing in the package is edited.  `Tracer.install` replaces each traced
function or method with a wrapper that records a span (name, start, end,
parent) and restores the originals on `uninstall`.  Modules bind names
such as `from .numerics import linear_solve`, so a function is replaced
under every name any loaded fibresplit module holds it by; the self-check
then asserts that each boundary saw calls where the workload should
exercise it, which catches a binding the patching missed.

Spans go into flat arrays (name index, start ns, end ns, parent index);
per-layer figures are derived from them after each round.
"""

import sys
import time
from array import array

import numpy as np

# (metric prefix, module, attribute): "Class.method" names a method.
BOUNDARIES = (
    ("cli.main", "cli", "main"),
    ("config.load", "config", "load_config"),
    ("exprs.compile", "exprs", "compile_field"),
    ("jets.tape_jet", "jets", "TapeField.jet"),
    ("jets.tape_value", "jets", "TapeField.value"),
    ("jets.compose", "jets", "jet2_compose"),
    ("bundle.derived_jet", "bundle", "DerivedField.jet"),
    ("numerics.linear_solve", "numerics", "linear_solve"),
    ("numerics.newton_solve", "numerics", "newton_solve"),
    ("numerics.rk4_integrate", "numerics", "rk4_integrate"),
    ("splitting.h_values", "splitting", "SplittingSpec.h_values"),
    ("splitting.classify", "splitting", "classify"),
    ("splitting.affine_decompose", "splitting", "affine_decompose"),
    ("lagrangian.solve_detail", "lagrangian", "InducedSplitting.solve_detail"),
    ("lagrangian.induced_splitting", "lagrangian", "induced_splitting"),
    ("nonholonomic.rhs", "nonholonomic", "ConstrainedSystem.rhs"),
    ("reduction.rhs", "reduction", "MagneticSystem.rhs"),
)

# Boundaries each workload must reach; a zero count here fails the
# self-check.  Layers a workload is not meant to use may read zero.
REQUIRED = {
    "induced": ("cli.main", "config.load", "exprs.compile", "jets.tape_jet",
                "jets.tape_value", "jets.jet2_new", "jets.compose",
                "bundle.derived_jet", "numerics.linear_solve",
                "numerics.newton_solve", "numerics.rk4_integrate",
                "splitting.h_values", "splitting.classify",
                "splitting.affine_decompose", "lagrangian.solve_detail",
                "lagrangian.induced_splitting"),
    "trajectories": ("cli.main", "config.load", "exprs.compile",
                     "jets.tape_jet", "jets.tape_value", "jets.jet2_new",
                     "jets.compose", "numerics.linear_solve",
                     "numerics.rk4_integrate", "nonholonomic.rhs",
                     "reduction.rhs"),
    "sweep": ("cli.main", "config.load", "exprs.compile", "jets.tape_jet",
              "jets.tape_value", "jets.compose", "bundle.derived_jet",
              "numerics.linear_solve", "numerics.rk4_integrate",
              "splitting.h_values", "splitting.classify",
              "splitting.affine_decompose", "lagrangian.solve_detail",
              "lagrangian.induced_splitting"),
}

# Per-layer metric names, in the order BENCHMARK.json lists them.
CALLS = ("jets.tape_jet", "jets.tape_value", "jets.jet2_new", "jets.compose",
         "nonholonomic.rhs", "reduction.rhs", "lagrangian.solve_detail",
         "numerics.newton_solve", "numerics.linear_solve",
         "numerics.rk4_integrate", "bundle.derived_jet", "splitting.h_values",
         "exprs.compile", "config.load", "cli.main")
SELF = ("jets.tape_jet", "jets.tape_value", "jets.compose",
        "nonholonomic.rhs", "reduction.rhs", "lagrangian.solve_detail",
        "numerics.newton_solve", "numerics.linear_solve",
        "numerics.rk4_integrate", "bundle.derived_jet", "splitting.h_values",
        "splitting.classify", "splitting.affine_decompose",
        "lagrangian.induced_splitting", "exprs.compile", "config.load",
        "cli.main")


def _resolve(module, attr):
    mod = sys.modules[f"fibresplit.{module}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name), meth
    return mod, attr


class Tracer:
    def __init__(self):
        self.names = [b[0] for b in BOUNDARIES]
        self._patches = []
        self.reset()

    def reset(self):
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack = []
        self.counters = {}

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, idx, fn, after):
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack = self._stack
        clock = time.perf_counter_ns
        name = self.names[idx]

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._count(name + ".failed")
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after(self, name):
        if name == "jets.tape_jet":
            def after(args, result):
                f = args[0]
                code = getattr(f, "code", None)
                if code is not None:
                    k = f.arity
                    self._count(name + ".ops", len(code))
                    self._count(name + ".bytes_computed",
                                8 * f.nreg * (1 + k + k * k))
            return after
        if name == "numerics.newton_solve":
            return lambda args, res: self._count(name + ".iterations",
                                                 res.iterations)
        if name == "numerics.rk4_integrate":
            return lambda args, res: self._count(name + ".steps",
                                                 len(res.t) - 1)
        return None

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Clear the span arrays and wrap every boundary."""
        self.reset()
        pkg = [m for k, m in list(sys.modules.items())
               if k == "fibresplit" or k.startswith("fibresplit.")]
        for idx, (name, module, attr) in enumerate(BOUNDARIES):
            owner, key = _resolve(module, attr)
            orig = getattr(owner, key)
            wrapped = self._wrap(idx, orig, self._after(name))
            if isinstance(owner, type):
                self._patch(owner, key, wrapped)
                continue
            for mod in pkg:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, binding, wrapped)
        jet2 = sys.modules["fibresplit.jets"].Jet2
        init = jet2.__init__

        def counted_init(obj, *args):
            self._count("jets.jet2_new.calls")
            init(obj, *args)

        self._patch(jet2, "__init__", counted_init)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def round_figures(self):
        """Counts and self times (s) of the spans recorded since reset.

        Self time is a span's duration minus the durations of its direct
        children, in integer nanoseconds, so nesting errors show as a
        negative value instead of rounding away.
        """
        name, start, end, parent = (
            np.frombuffer(a, dtype=np.int64) if len(a) else
            np.zeros(0, dtype=np.int64)
            for a in (self.span_name, self.span_start, self.span_end,
                      self.span_parent))
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        self_total = np.zeros(len(self.names), dtype=np.int64)
        np.add.at(self_total, name, self_ns)
        out = dict(self.counters)
        for i, n in enumerate(self.names):
            out[n + ".calls"] = int(calls[i])
            out[n + ".self_s"] = float(self_total[i]) * 1e-9
        out["negative_self_spans"] = int((self_ns < 0).sum())
        out["spans"] = int(len(dur))
        return out


def self_check(workload, figures):
    """Problems with the trace of one round: missed boundaries, negative
    self times."""
    problems = []
    for name in REQUIRED[workload]:
        if not figures.get(name + ".calls", 0) > 0:
            problems.append(f"boundary {name} recorded no calls on {workload}")
    if figures["negative_self_spans"]:
        problems.append(f"{figures['negative_self_spans']} spans have "
                        f"negative self time")
    return problems


def layer_metrics(figures, self_times, overhead_s):
    """The per-layer metric set from one round's counts and the median self
    times over traced rounds."""
    def c(key):
        return figures.get(key, 0)

    out = {}
    for name in CALLS:
        out[name + ".calls"] = (c(name + ".calls"), "count")
    for name in SELF:
        out[name + ".self_s"] = (self_times[name], "s")
    calls = c("jets.tape_jet.calls")
    out["jets.tape_jet.us_per_call"] = (
        self_times["jets.tape_jet"] / calls * 1e6 if calls else 0.0, "us")
    out["jets.tape_jet.ops"] = (c("jets.tape_jet.ops"), "count")
    out["jets.tape_jet.bytes_computed"] = (c("jets.tape_jet.bytes_computed"),
                                           "B")
    points = c("lagrangian.solve_detail.calls")
    out["lagrangian.newton_per_point"] = (
        c("numerics.newton_solve.calls") / points if points else 0.0, "ratio")
    out["numerics.newton_solve.iterations"] = (
        c("numerics.newton_solve.iterations"), "count")
    out["numerics.newton_solve.failed"] = (c("numerics.newton_solve.failed"),
                                           "count")
    out["numerics.linear_solve.failed"] = (c("numerics.linear_solve.failed"),
                                           "count")
    out["numerics.rk4_integrate.steps"] = (c("numerics.rk4_integrate.steps"),
                                           "count")
    out["trace_overhead_s"] = (overhead_s, "s")
    return out
