"""Span tracing of the package from outside it.

``Tracer.installed`` replaces each traced public function at every
module-level import site in ``ahrskit`` (``ahrskit.pipeline.time_update``,
``ahrskit.dlkf.euler_to_quat``, ``ahrskit.logio.read_log``, ...) with a
wrapper that records a span, and puts the originals back on exit. Spans
(name, start, end, parent) live in flat arrays in memory and are only
read once the traced work is over; ``Spans`` derives self time and call
counts from them.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, function): the public layer functions that get a span named
# "<module>.<function>"
TRACED = (
    ("simulate", "simulate"),
    ("geometry", "quat_to_euler"), ("geometry", "euler_to_quat"),
    ("geometry", "quat_to_dcm"),
    ("propagation", "propagate"),
    ("fasteuler", "accel_roll_pitch"), ("fasteuler", "mag_yaw"),
    ("dlkf", "time_update"), ("dlkf", "accel_update"), ("dlkf", "mag_update"),
    ("dlkf", "adaptive_factor"), ("dlkf", "apply_correction"),
    ("complementary", "cf_update"),
    ("pipeline", "run_pipeline"), ("pipeline", "initial_alignment"),
    ("logio", "write_log"), ("logio", "read_log"),
    ("logio", "write_estimates"), ("logio", "read_estimates"),
    ("configio", "load_scenario"), ("configio", "load_pipeline_config"),
    ("metrics", "evaluate"), ("metrics", "rmse"),
    ("cli", "main"),
)

# spans of these functions are named after an argument: the algorithm of
# a pipeline run, the subcommand of a CLI call
LABELS = {
    ("pipeline", "run_pipeline"): lambda args: "pipeline.run_pipeline." + args[1].algorithm,
    ("cli", "main"): lambda args: "cli." + args[0][0],
}

# every module whose namespace may hold an import of a traced function
SITES = ("ahrskit", "ahrskit.benchmark", "ahrskit.cli", "ahrskit.complementary",
         "ahrskit.configio", "ahrskit.dlkf", "ahrskit.fasteuler",
         "ahrskit.geometry", "ahrskit.logio", "ahrskit.metrics",
         "ahrskit.pipeline", "ahrskit.propagation", "ahrskit.simulate")


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.returned_none = array("b")
        self._stack = [-1]
        self.segments: dict[str, tuple[int, int]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, label=None):
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        returned_none, stack, name_id = self.returned_none, self._stack, self.name_id
        fixed = name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(fixed if label is None else name_id(label(args)))
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            returned_none.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            returned_none[idx] = result is None
            return result

        return wrapper

    @contextmanager
    def installed(self, segment: str):
        """Trace every call made inside the block; spans go to `segment`."""
        originals = {}
        for module, function in TRACED:
            fn = getattr(importlib.import_module(f"ahrskit.{module}"), function, None)
            if fn is not None:
                originals[id(fn)] = self._wrap(f"{module}.{function}", fn,
                                               LABELS.get((module, function)))
        patches = []
        for site in SITES:
            mod = importlib.import_module(site)
            for attr, value in vars(mod).items():
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    patches.append((mod, attr, value, wrapper))
        lo = len(self.span_name)
        try:
            for mod, attr, _, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield
        finally:
            for mod, attr, original, _ in reversed(patches):
                setattr(mod, attr, original)
            self.segments[segment] = (lo, len(self.span_name))


class Stats:
    """Aggregate of the spans of one name inside one index range."""

    def __init__(self, calls: int, total_s: float, self_s: float, nones: int):
        self.calls, self.total_s, self.self_s, self.nones = calls, total_s, self_s, nones

    def us_per_call(self) -> float:
        return 1e6 * self.total_s / self.calls if self.calls else 0.0

    def self_us_per_call(self) -> float:
        return 1e6 * self.self_s / self.calls if self.calls else 0.0

    def ms_per_call(self) -> float:
        return 1e3 * self.total_s / self.calls if self.calls else 0.0


class Spans:
    """Read-only view of a tracer's spans with self time derived."""

    def __init__(self, tracer: Tracer):
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self.segments = tracer.segments
        self.name = np.array(tracer.span_name, dtype=np.int64)
        parent = np.array(tracer.parent, dtype=np.int64)
        self.start = np.array(tracer.start)
        duration = np.array(tracer.end) - self.start
        self.end = np.array(tracer.end)
        self.none = np.array(tracer.returned_none, dtype=bool)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=len(duration))
        self.duration = duration
        self.self_time = duration - children

    def __len__(self) -> int:
        return len(self.name)

    def subtree(self, name: str, segment: str) -> tuple[int, int]:
        """Index range of the first span called `name` in a segment and
        everything it called (spans are numbered in call order)."""
        lo, hi = self.segments[segment]
        nid = self._ids.get(name, -1)
        hits = np.flatnonzero(self.name[lo:hi] == nid)
        if not len(hits):
            return lo, lo
        first = lo + int(hits[0])
        return first, int(np.searchsorted(self.start, self.end[first], side="left"))

    def stats(self, name: str, span_range: tuple[int, int]) -> Stats:
        lo, hi = span_range
        mask = self.name[lo:hi] == self._ids.get(name, -1)
        return Stats(int(mask.sum()), float(self.duration[lo:hi][mask].sum()),
                     float(self.self_time[lo:hi][mask].sum()),
                     int(self.none[lo:hi][mask].sum()))
