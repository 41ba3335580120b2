"""Span tracing of thetaconf's layers, installed from outside the package.

`install` wraps every public module-level function of each layer module
and the PosetView build and cover methods, and rebinds the wrapper under
every name that any thetaconf module (the package itself included) holds
for the original.  Calls that resolve those names at call time, which is
every call between modules and every call the benchmark makes through
`thetaconf.<name>`, then open a span.  A layer's self time is the time
of its spans minus the time of their child spans, whatever layer the
children belong to.

Spans are kept in memory as aggregates per function and per
(caller, callee) edge; `summary` hands them out when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("trees", "gamma", "theta", "nord", "labelled", "homology",
          "cells", "verify")
METHODS = {"nord": {"PosetView": ("of_orderings", "covers")}}


def _chains(result):
    return sum(result.counts())


def _nonzeros(result):
    return sum(len(col) for layer in result.boundaries for col in layer)


# Counters recorded from a function's result: key -> (counter, measure,
# caller the call must come from, or None for any caller).  The sweep in
# verify.check_morphism_pair tests every set map it enumerates with the
# branching condition, so its true answers are the maps it keeps.
SIZES = {
    "gamma.enumerate_gamma": ("gamma.maps", len, None),
    "theta.branching_condition_holds": ("gamma.kept", int,
                                        "verify.check_morphism_pair"),
    "homology.order_complex": ("homology.chains", _chains, None),
    "homology.boundary_matrices": ("homology.nonzeros", _nonzeros, None),
}


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.stack = []     # [key, time covered by child spans] per open span
        self.depth = {}     # key -> open activations, to time recursion once
        self.calls = {}
        self.self_s = {}
        self.total_s = {}   # outermost activations only
        self.edges = {}     # (caller key, callee key) -> [calls, seconds]
        self.sizes = {}

    def wrap(self, key, fn):
        size = SIZES.get(key)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self.stack
            caller = stack[-1][0] if stack else "bench"
            depth = self.depth.get(key, 0)
            self.depth[key] = depth + 1
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.depth[key] = depth
                self.calls[key] = self.calls.get(key, 0) + 1
                self.self_s[key] = self.self_s.get(key, 0.0) + elapsed - frame[1]
                if not depth:
                    self.total_s[key] = self.total_s.get(key, 0.0) + elapsed
                if stack:
                    stack[-1][1] += elapsed
                edge = self.edges.setdefault((caller, key), [0, 0.0])
                edge[0] += 1
                edge[1] += elapsed
            if size and size[2] in (None, caller):
                name, measure, _ = size
                self.sizes[name] = self.sizes.get(name, 0) + measure(result)
            return result

        return span

    def summary(self) -> dict:
        return {
            "functions": {key: {"calls": self.calls[key],
                                "self_s": self.self_s[key],
                                "total_s": self.total_s.get(key, 0.0)}
                          for key in sorted(self.calls)},
            "edges": [{"caller": caller, "callee": callee, "calls": calls,
                       "seconds": seconds}
                      for (caller, callee), (calls, seconds)
                      in sorted(self.edges.items())],
            "sizes": dict(self.sizes),
        }


def install(tracer: Tracer):
    layers = {layer: importlib.import_module(f"thetaconf.{layer}")
              for layer in LAYERS}
    modules = [module for name, module in list(sys.modules.items())
               if name == "thetaconf" or name.startswith("thetaconf.")]
    for layer, module in layers.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != module.__name__:
                continue
            wrapper = tracer.wrap(f"{layer}.{name}", obj)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is obj:
                        setattr(holder, attr, wrapper)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for name in methods:
                raw = vars(cls)[name]
                key = f"{layer}.{cls_name}.{name}"
                if isinstance(raw, classmethod):
                    setattr(cls, name, classmethod(tracer.wrap(key, raw.__func__)))
                else:
                    setattr(cls, name, tracer.wrap(key, raw))


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for key, count in tracer.calls.items():
        layer = key.split(".", 1)[0]
        self_s[layer] += tracer.self_s[key]
        calls[layer] += count
    total = tracer.total_s.get
    sizes = tracer.sizes.get
    maps = sizes("gamma.maps", 0)
    return {
        "trees.self_s": self_s["trees"],
        "trees.calls": calls["trees"],
        "gamma.self_s": self_s["gamma"],
        "gamma.maps": maps,
        "gamma.kept_ratio": sizes("gamma.kept", 0) / maps if maps else 0.0,
        "theta.self_s": self_s["theta"],
        "theta.calls": calls["theta"],
        "nord.self_s": self_s["nord"],
        "nord.poset_s": total("nord.PosetView.of_orderings", 0.0),
        "nord.covers_s": total("nord.PosetView.covers", 0.0),
        "nord.leq_calls": tracer.calls.get("nord.leq", 0),
        "labelled.self_s": self_s["labelled"],
        "labelled.calls": calls["labelled"],
        "homology.self_s": self_s["homology"],
        "homology.order_complex_s": total("homology.order_complex", 0.0),
        "homology.boundary_s": total("homology.boundary_matrices", 0.0),
        "homology.snf_s": total("homology.homology", 0.0),
        "homology.chains": sizes("homology.chains", 0),
        "homology.nonzeros": sizes("homology.nonzeros", 0),
        "cells.self_s": self_s["cells"],
        "cells.calls": calls["cells"],
        "verify.self_s": self_s["verify"],
    }
