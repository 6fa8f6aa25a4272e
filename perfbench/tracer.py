"""Outside-in span tracer for the ginibrenet benchmark.

`Tracer.install` replaces the public functions (and public methods of the
classes) of each traced layer module with timing wrappers, in every
``ginibrenet`` module namespace that holds a reference to them.  A call from
one module into another resolves the name in the caller's namespace, so the
wrappers see exactly the calls the program makes; no package source changes.

Spans live in flat in-memory arrays (name, parent, start, end) and are
written out once, after the measured run.  A span's self time is its
duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import csv
import gzip
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("samplers", "spectral", "fading", "interference", "estimation",
          "config", "cli", "validate")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        # qualified name -> callable(bound_args, result, seconds)
        self.hooks: dict = {}

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.span_start[sid] = t0
        self.span_end[sid] = t1

    def span(self, name: str):
        """Context manager for a benchmark-level span (run, unit, operation)."""
        return _Span(self, self._name_id(name))

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        tracer = self
        perf = time.perf_counter
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            sid = tracer._open(name_id)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer._close(sid, t0, t1)
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(signature.bind(*args, **kwargs), result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -------------------------------------------------------

    def install(self, package: str = "ginibrenet") -> None:
        """Wrap every public function and public method of the layer modules
        wherever a package module (or a module-level tuple) refers to it."""
        importlib.import_module(package)
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replacements[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth,
                                    self.wrap(f"{layer}.{attr}.{meth}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements:
                    setattr(mod, attr, replacements[id(obj)])
                elif isinstance(obj, tuple) and any(id(o) in replacements
                                                    for o in obj):
                    setattr(mod, attr, tuple(replacements.get(id(o), o)
                                             for o in obj))

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name id, duration, self time) per span."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=float)
               - np.frombuffer(self.span_start, dtype=float))
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return names, dur, dur - child

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: span count and summed self time; per name likewise."""
        names, _, self_s = self.self_times()
        calls = np.bincount(names, minlength=len(self.names))
        self_by_name = np.bincount(names, weights=self_s, minlength=len(self.names))
        out = {}
        for idx, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += int(calls[idx])
            entry["self_s"] += float(self_by_name[idx])
        return out

    def write(self, path) -> None:
        """Write every span as gzip'd CSV: run_id, span_id, parent_id, name,
        start_s, end_s (perf_counter seconds)."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "span_id", "parent_id", "name",
                             "start_s", "end_s"])
            for sid in range(len(self.span_start)):
                writer.writerow([self.run_id, sid, self.span_parent[sid],
                                 self.names[self.span_name[sid]],
                                 f"{self.span_start[sid]:.9f}",
                                 f"{self.span_end[sid]:.9f}"])


class _Span:
    __slots__ = ("tracer", "name_id", "sid", "t0")

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.sid = self.tracer._open(self.name_id)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.t0, time.perf_counter())
        return False
