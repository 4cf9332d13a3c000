"""In-memory span tracer for the orthocal package, installed from outside it.

``Tracer.install`` replaces every function that one ``orthocal`` module (or
the package namespace) takes from another ``orthocal`` module with a wrapper
that records a span.  A span's layer is the module that defines the function,
so a call that stays inside one module stays in that module's self time, and
no file under ``src/`` changes.  Spans live in memory as
``[name, layer, start_ns, end_ns, parent, rows, error]`` and are written out
by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import types

LAYERS = ("kinematics", "measurement", "identification", "accuracy", "geometry", "fileio", "cli")

NAME, LAYER, START, END, PARENT, ROWS, ERROR = range(7)


def _rows(args, kwargs) -> int:
    """Leading rows of the largest array argument: the number of vectors it
    holds along its last axis, 1 for a single vector or no array at all."""
    best = None
    for value in (*args, *kwargs.values()):
        shape = getattr(value, "shape", None)
        if isinstance(shape, tuple) and hasattr(value, "size"):
            if best is None or value.size > best.size:
                best = value
    if best is None or best.ndim < 2 or best.shape[-1] == 0:
        return 1
    return best.size // best.shape[-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._last_exc: BaseException | None = None
        self._patched: list = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._last_exc = None

    def wrap(self, fn, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0, 0, stack[-1] if stack else -1, _rows(args, kwargs), 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count an error once, in the span that raised it, not in
                # every span it passes through on the way up
                if exc is not self._last_exc:
                    rec[ERROR] = 1
                    self._last_exc = exc
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A span of the benchmark's own, e.g. the root of one operation."""
        stack = self._stack
        rec = [name, layer, 0, 0, stack[-1] if stack else -1, 1, 0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[END] = time.perf_counter_ns()
            stack.pop()

    def install(self, package) -> int:
        """Wrap each cross-module function reference in the namespaces of
        ``package`` and its loaded submodules; returns how many were wrapped."""
        prefix = package.__name__ + "."
        modules = [package] + [
            mod for key, mod in sorted(sys.modules.items()) if key.startswith(prefix)
        ]
        wrappers: dict = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                origin = obj.__module__ or ""
                if not origin.startswith(prefix) or origin == mod.__name__:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(obj, origin[len(prefix):].split(".")[0])
                setattr(mod, attr, wrappers[obj])
                self._patched.append((mod, attr, obj))
        return len(self._patched)

    def uninstall(self) -> int:
        """Put the original function references back; returns how many."""
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        count = len(self._patched)
        self._patched.clear()
        return count

    def dump(self, path, proc: int) -> None:
        """Append the spans to a JSON-lines file, tagged with a process id."""
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps([proc, *rec]) + "\n")


def summarize(spans) -> dict:
    """Per-layer totals of one process's spans, plus the counts behind the
    derived ratios: self time is duration minus the time of direct children."""
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_ns[rec[PARENT]] += rec[END] - rec[START]
    totals = {layer: {"self_ns": 0, "calls": 0, "rows": 0, "errors": 0} for layer in LAYERS}
    runs_with_model = set()
    model_rows = 0
    for i, rec in enumerate(spans):
        t = totals.get(rec[LAYER])
        if t is not None:
            t["self_ns"] += rec[END] - rec[START] - child_ns[i]
            t["calls"] += 1
            t["rows"] += rec[ROWS]
            t["errors"] += rec[ERROR]
        parent = rec[PARENT]
        if rec[LAYER] == "measurement" and parent >= 0 and spans[parent][LAYER] == "identification":
            model_rows += rec[ROWS]
            runs_with_model.add(parent)
    totals["model_rows"] = model_rows
    totals["model_runs"] = sum(spans[i][ROWS] for i in runs_with_model)
    return totals


def merge(a: dict, b: dict) -> dict:
    out = {}
    for key in a:
        if isinstance(a[key], dict):
            out[key] = {k: a[key][k] + b[key][k] for k in a[key]}
        else:
            out[key] = a[key] + b[key]
    return out
