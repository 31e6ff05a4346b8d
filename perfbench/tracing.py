"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps, in the running process only:

* every public function defined in a ``cotton3`` module, in every
  ``cotton3.*`` namespace that binds it (so calls between modules are seen
  too), plus the ``SolitonProblem.build`` constructor;
* the ``np.linalg`` entry points the engine uses.  Those spans are kept only
  when a ``cotton3`` span is open, so the benchmark's own linear algebra
  (checks, calibration) is not counted.

A span is ``(name, layer, start_ns, end_ns, parent, op, error)``: ``parent``
is the index of the enclosing span (-1 at the top), ``op`` the op id the
harness set, ``error`` the exception class name when the call raised.
Spans are recorded only while ``tracer.op`` is set, and stay in memory until
``write`` saves them.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("frame_algebra", "connection_curvature", "cotton", "almost_kenmotsu",
          "soliton", "cotton_flow", "cli")
LINALG = ("lstsq", "svd", "solve", "cholesky", "det", "eigvalsh")
LINALG_LAYER = "numpy_linalg"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self._undo: list = []

    def _wrap(self, fn, name: str, layer: str, nested_only: bool = False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None or (nested_only and not stack):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err = None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, layer, t0, t1, parent, tracer.op, err)

        return traced

    def _bind(self, owner, attr, new):
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import cotton3

        for layer in LAYERS:
            importlib.import_module(f"cotton3.{layer}")
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "cotton3" or name.startswith("cotton3.")]
        wrapped = {}
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                if not (inspect.isfunction(val) and val.__module__.startswith("cotton3.")
                        and not val.__name__.startswith("_")):
                    continue
                if val not in wrapped:
                    layer = val.__module__.rsplit(".", 1)[-1]
                    wrapped[val] = self._wrap(val, val.__name__, layer)
                self._bind(mod, attr, wrapped[val])
        build = cotton3.SolitonProblem.__dict__["build"].__func__
        self._bind(cotton3.SolitonProblem, "build",
                   classmethod(self._wrap(build, "SolitonProblem.build", "soliton")))
        for name in LINALG:
            fn = getattr(np.linalg, name)
            self._bind(np.linalg, name, self._wrap(fn, name, LINALG_LAYER, nested_only=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def clear(self) -> None:
        del self.spans[:]

    def write(self, path) -> None:
        keys = ("name", "layer", "start_ns", "end_ns", "parent", "op", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans) -> dict:
    """Per-layer self time (ns), call counts and derived ratios of a span list.

    A span's self time is its duration minus the durations of its direct
    children, so a layer's self time is the time during which its span was
    the innermost one open.
    """
    child_ns = [0] * len(spans)
    for name, layer, t0, t1, parent, op, err in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    candidates = 0
    degenerate = 0
    for i, (name, layer, t0, t1, parent, op, err) in enumerate(spans):
        self_ns[layer] += t1 - t0 - child_ns[i]
        calls[f"{layer}.{name}"] += 1
        if name == "structure_residuals" and parent >= 0 and spans[parent][0] == "detect_structure":
            candidates += 1
        if name == "flow_run" and err == "DegenerateMetric":
            degenerate += 1
    return {"self_ns": self_ns, "calls": calls, "candidates": candidates,
            "degenerate": degenerate}
