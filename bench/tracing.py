"""In-memory spans around the public qposc functions, for the traced run.

`install` replaces each traced function, in every qposc module namespace
that holds it, with a wrapper that records a span; calls the library makes
internally (trace_curve -> solve_p_for_q, cli.main -> trace_curve, ...)
therefore become child spans of the calling span.  Each operation of the
loop is a root span.  Spans stay in memory and are written once, at the end.

Per function the tracer reports calls, busy_s (time inside the function,
children included), p50_ms (median call duration) and failed (calls that
raised); per module, self_s: the time inside that module's traced
functions minus the time covered by their child spans.
"""

import functools
import importlib
import json
import statistics
import sys
import time

# (module, function) pairs traced; their metric names are <module>.<function>.*
FUNCTIONS = (
    ("core", "energy_spectrum"), ("core", "fock_rep"), ("core", "fock_residuals"),
    ("degeneracy", "trace_curve"), ("degeneracy", "solve_p_for_q"),
    ("degeneracy", "endpoint_q"), ("degeneracy", "implicit_derivative"),
    ("families", "parse_family"), ("families", "validate_family"),
    ("families", "solve_degeneracy_on_family"), ("families", "family_energy"),
    ("spectrum", "profile"), ("spectrum", "peak_level"),
    ("intercept", "intercept_curve"),
    ("cli", "main"),
)
MODULES = ("core", "degeneracy", "families", "spectrum", "intercept", "cli")


def _count_samples(counts, args, result):
    counts["degeneracy.samples"] += len(result.samples)


def _count_levels(counts, args, result):
    counts["core.levels"] += len(result)


def _count_fock(counts, args, result):
    counts["core.fock_dim"] += result.dim


def _count_roots(counts, args, result):
    counts["families.solves"] += 1
    counts["families.roots"] += result is not None


# work counts recorded at the same boundaries as the spans
COUNTERS = {"degeneracy.trace_curve": _count_samples, "core.energy_spectrum": _count_levels,
            "core.fock_rep": _count_fock, "families.solve_degeneracy_on_family": _count_roots}


class Tracer:
    """Spans as [parent, name, start_ns, end_ns, error] in one flat list."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"degeneracy.samples": 0, "core.levels": 0, "core.fock_dim": 0,
                       "families.solves": 0, "families.roots": 0}

    def _begin(self, name):
        span = [self.stack[-1] if self.stack else None, name, time.perf_counter_ns(), 0, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span, error):
        span[3] = time.perf_counter_ns()
        span[4] = error
        self.stack.pop()

    def begin_op(self, kind):
        self._begin(f"op.{kind}")

    def end_op(self, error):
        self._end(self.spans[self.stack[-1]], error)

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._end(span, type(exc).__name__)
                raise
            self._end(span, None)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def layer_metrics(self):
        """Per-function and per-module figures of the recorded spans."""
        child_ns = [0] * len(self.spans)
        for parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        per_fn = {f"{m}.{f}": [] for m, f in FUNCTIONS}
        failed = dict.fromkeys(per_fn, 0)
        self_ns = dict.fromkeys(MODULES, 0)
        for i, (_, name, start, end, error) in enumerate(self.spans):
            if name in per_fn:
                per_fn[name].append(end - start)
                failed[name] += error is not None
                self_ns[name.split(".")[0]] += end - start - child_ns[i]
        out = {}
        for name, durations in per_fn.items():
            out[f"{name}.calls"] = (len(durations), "count")
            out[f"{name}.busy_s"] = (sum(durations) / 1e9, "s")
            out[f"{name}.p50_ms"] = (statistics.median(durations) / 1e6 if durations else 0.0, "ms")
            out[f"{name}.failed"] = (failed[name], "count")
        for module, ns in self_ns.items():
            out[f"{module}.self_s"] = (ns / 1e9, "s")
        for name in ("degeneracy.samples", "core.levels", "core.fock_dim"):
            out[name] = (self.counts[name], "count")
        solves = self.counts["families.solves"]
        out["families.root_ratio"] = (self.counts["families.roots"] / solves if solves else 0.0,
                                      "frac")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["parent", "name", "start_ns", "end_ns", "error"],
                       "spans": self.spans}, fh)


def install(tracer):
    """Wrap every traced function wherever a qposc module binds it; returns
    the patches for uninstall."""
    patches = []
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "qposc" or name.startswith("qposc.")]
    for module_name, fn_name in FUNCTIONS:
        original = getattr(importlib.import_module(f"qposc.{module_name}"), fn_name)
        wrapper = tracer.wrap(f"{module_name}.{fn_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    patches.append((mod, attr, original))
    return patches


def uninstall(patches):
    for mod, attr, original in reversed(patches):
        setattr(mod, attr, original)
