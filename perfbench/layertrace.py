"""Per-layer tracing from outside the package.

``Tracer.install`` wraps every public function of the layer modules, plus a
few methods, at every module of the package that binds it: the
``apply_Delta`` that ``quantize`` and ``calculus`` imported is the same
function as ``symbols.apply_Delta`` and gets the same wrapper.  Each call
records a span (name, parent span, start, end) in memory; ``uninstall``
restores the originals.  A span is named after the module that defines
the function, e.g. ``symbols.apply_Delta`` or ``symbols.Symbol.table``.

Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from collections import defaultdict

#: the package modules that are the layers (``errors`` does no work)
LAYERS = ("model", "symbols", "transform", "quantize", "calculus", "analysis", "evolve", "cli")

#: methods traced besides the public module-level functions
METHODS = {"symbols": {"Symbol": ("table", "values")},
           "calculus": {"Contour": ("default_keyhole",)}}

PACKAGE = "nonharmonic"


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _annotate_coupling_tensor(args, kwargs, result, counters):
    # Q * n_out * n_in complex128 entries, from the array's shape
    counters["bytes_computed"] += result.size * 16


def _annotate_dunford_riesz(args, kwargs, result, counters):
    model, a, _, contour = args[:4]
    nodes = len(contour.nodes)
    counters["inversions"] += nodes
    counters["lead_bytes_computed"] += nodes * len(model.indices) * model.Q * 16


def _annotate_solve_ivp(args, kwargs, result, counters):
    counters["steps"] += args[1].steps
    counters["picard_iterations"] += result.picard_iterations


#: span name -> function adding counters computed from (args, result)
ANNOTATORS = {
    "symbols.coupling_tensor": _annotate_coupling_tensor,
    "calculus.dunford_riesz": _annotate_dunford_riesz,
    "evolve.solve_ivp": _annotate_solve_ivp,
}

#: spans whose ru_maxrss growth is recorded per outermost call
RSS_TRACKED = ("calculus.dunford_riesz",)


class Tracer:
    """Wraps the layer functions and keeps every span in memory."""

    def __init__(self):
        self.names: list = []       # span index -> name
        self.parents: list = []     # span index -> parent span index or -1
        self.starts: list = []
        self.ends: list = []
        self.counters = defaultdict(lambda: defaultdict(float))
        self._stack: list = []
        self._patches: list = []    # (owner, attribute, original value)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        annotate = ANNOTATORS.get(name)
        track_rss = name in RSS_TRACKED
        names, parents, starts, ends, stack = (self.names, self.parents, self.starts,
                                               self.ends, self._stack)
        counters = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            outermost = track_rss and all(names[i] != name for i in stack)
            rss0 = maxrss_mb() if outermost else 0.0
            stack.append(idx)
            starts[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()
            if outermost:
                counters["maxrss_growth_mb"] += maxrss_mb() - rss0
            if annotate is not None:
                annotate(args, kwargs, result, counters)
            return result

        return wrapper

    def install(self):
        """Wrap the layer functions at every loaded package module binding them."""
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(f"{layer}.{cls_name}.{meth}", raw.__func__))
                    else:
                        new = self._wrap(f"{layer}.{cls_name}.{meth}", raw)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, new)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def summary(self) -> dict:
        """Per span name: calls, self_s, the annotated counters; and the
        number of Galerkin builds made directly inside ``solve_ivp``."""
        out = defaultdict(lambda: defaultdict(float))
        for name, self_s in zip(self.names, self.self_times()):
            out[name]["calls"] += 1
            out[name]["self_s"] += self_s
        for name, counters in self.counters.items():
            if name in out:
                out[name].update(counters)
        if "evolve.solve_ivp" in out:
            out["evolve.solve_ivp"]["galerkin_builds"] = sum(
                1 for name, p in zip(self.names, self.parents)
                if name == "quantize.galerkin_matrix" and p >= 0
                and self.names[p] == "evolve.solve_ivp")
        return {name: dict(v) for name, v in out.items()}

    def take(self) -> dict:
        """The summary of the spans recorded so far, which are then dropped;
        call it between top-level calls."""
        summary = self.summary()
        for spans in (self.names, self.parents, self.starts, self.ends):
            spans.clear()
        for counters in self.counters.values():  # the wrappers hold these
            counters.clear()
        return summary

    def spans(self) -> list:
        return [[n, p, s, e] for n, p, s, e in zip(self.names, self.parents, self.starts,
                                                   self.ends)]


def merge_summaries(summaries) -> dict:
    """Sum per-name counters over several traced processes."""
    out = defaultdict(lambda: defaultdict(float))
    for summary in summaries:
        for name, counters in summary.items():
            for key, value in counters.items():
                out[name][key] += value
    return {name: dict(v) for name, v in out.items()}
