"""Spans around the calls into precondrisk's layers, recorded from outside.

``Tracer.install`` wraps every public function defined in the layer
modules, plus the ``numpy.linalg`` entry points the package factors
with.  Modules such as ``experiments`` import functions by name, so the
wrapper replaces the defining module's attribute and every other
binding of the same function object inside the package.  ``uninstall``
puts the originals back.

A span is one call: its name, start, end and the spans open on the
calling thread (its ancestors).  Spans stay in memory; ``summary``
reduces them to per-function and per-layer busy time, call counts, the
coverage of the root span by its top-level children, and the tracer's
own overhead: wrapped calls times the cost of one empty wrapped call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("stieltjes", "risk_theory", "finite_sim", "rkhs_sim", "experiments")
LINALG = ("eigh", "eigvalsh", "solve", "inv", "pinv", "svd")
ROOT = "experiments.run"
CALIBRATION_CALLS = 20_000


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Wraps layer functions and aggregates their spans."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []  # (owner, attribute, original)
        self.calls = Counter()
        self.function_s = defaultdict(float)
        self.layer_s = defaultdict(float)
        self.root_spans = []
        self.top_spans = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, layer: str, ancestors: list,
                start: float, end: float) -> None:
        with self._lock:
            self.calls[name] += 1
            # recursive or nested calls are counted, their time is not
            if all(a != name for a, _ in ancestors):
                self.function_s[name] += end - start
            if all(l != layer for _, l in ancestors):
                self.layer_s[layer] += end - start
            if name == ROOT:
                self.root_spans.append((start, end))
            elif all(a == ROOT for a, _ in ancestors):
                self.top_spans.append((start, end))

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            ancestors = list(stack)
            stack.append((name, layer))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._record(name, layer, ancestors, start, end)

        return traced

    def _patch(self, owner, attribute: str, value) -> None:
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self) -> None:
        import numpy.linalg

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"precondrisk.{layer}")
            for attribute, value in vars(module).items():
                if (not attribute.startswith("_")
                        and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attribute}",
                                                 value)
        for attribute in LINALG:
            self._patch(numpy.linalg, attribute,
                        self._wrap(f"linalg.{attribute}",
                                   getattr(numpy.linalg, attribute)))
        for module_name, module in sorted(sys.modules.items()):
            if module_name != "precondrisk" and \
                    not module_name.startswith("precondrisk."):
                continue
            for attribute, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attribute, wrappers[value])

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    @staticmethod
    def call_cost_s() -> float:
        """Seconds one wrapped call adds: the fastest of five batches of
        empty calls through a tracer of their own, per call."""
        empty = Tracer()._wrap("calibration.empty", lambda: None)
        batches = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                empty()
            batches.append(time.perf_counter() - start)
        return min(batches) / CALIBRATION_CALLS

    def summary(self) -> dict:
        """Busy time per function and layer, counts, root coverage and
        the estimated tracer overhead."""
        call_cost_s = self.call_cost_s()
        with self._lock:
            run_s = sum(end - start for start, end in self.root_spans)
            covered = sum(_union_length(self.top_spans, start, end)
                          for start, end in self.root_spans)
            top_s = sum(end - start for start, end in self.top_spans)
            linalg_calls = sum(count for name, count in self.calls.items()
                               if name.startswith("linalg."))
            return {
                "run_s": run_s,
                "calls": dict(self.calls),
                "function_s": dict(self.function_s),
                "layer_s": dict(self.layer_s),
                "linalg_calls": linalg_calls,
                "top_level_s": top_s,
                "coverage": covered / run_s if run_s > 0 else 0.0,
                "call_cost_s": call_cost_s,
                "overhead_s": call_cost_s * sum(self.calls.values()),
            }
