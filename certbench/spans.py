"""Span recording around cubeint's public functions, and self-time arithmetic.

The tracer wraps module attributes from outside the program: it replaces the
names that callers actually resolve (``cli.verify_large_sets``,
``search.canonical_form``, ...) with wrappers that record one span per call.
Spans stay in memory as ``[name, start, end, parent]`` lists, ``parent`` being
the index of the enclosing span or -1, and are written out once the run ends.

A binding that no longer exists is skipped and left out of ``installed``; the
metrics derived from it are then reported as absent instead of as zero.
"""
from __future__ import annotations

import functools
import importlib
import time

# (module that callers resolve the name in, attribute, span name).  The span
# name is the layer that defines the function, so two bindings of the same
# function (theorems.canonical_form and search.canonical_form) share one name.
BINDINGS = (
    ("cubeint.cli", "verify_large_sets", "theorems.verify_large_sets"),
    ("cubeint.cli", "verify_small_window", "theorems.verify_small_window"),
    ("cubeint.cli", "ints_window_check", "theorems.ints_window_check"),
    ("cubeint.theorems", "bfs_search", "search.bfs_search"),
    ("cubeint.theorems", "canonical_form", "shapes.canonical_form"),
    ("cubeint.theorems", "intersection_value_set", "shapes.intersection_value_set"),
    ("cubeint.theorems", "intersection_size", "cube.intersection_size"),
    ("cubeint.search", "canonical_form", "shapes.canonical_form"),
    ("cubeint.search", "intersection_value_set", "shapes.intersection_value_set"),
)

# Span names whose distinct inputs are counted (the key the program caches on).
KEYED = {"shapes.canonical_form", "shapes.intersection_value_set"}


def _call_key(args, kwargs):
    head = tuple(getattr(a, "edges", a) for a in args)
    return head + tuple(sorted(kwargs.items()))


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.installed: set[str] = set()
        self.keys: dict[str, set] = {name: set() for name in KEYED}
        self.unkeyed: set[str] = set()
        self.search_results: list = []

    def span(self, name: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name: str, fn):
        keys = self.keys.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                try:
                    keys.add(_call_key(args, kwargs))
                except TypeError:
                    self.unkeyed.add(name)
            result = self.span(name, fn, *args, **kwargs)
            if name == "search.bfs_search":
                self.search_results.append(result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in BINDINGS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                continue
            setattr(module, attr, self._wrap(name, fn))
            self.installed.add(name)

    def distinct(self) -> dict[str, int | None]:
        return {
            name: None if name in self.unkeyed or name not in self.installed else len(keys)
            for name, keys in self.keys.items()
        }


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its direct children (overlapping children counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarise(spans) -> dict[str, dict]:
    """Per span name: call count, total self time, slowest single call, and the
    number of calls whose direct parent is each other span name."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for (name, start, end, parent), own in zip(spans, selfs):
        entry = out.setdefault(
            name, {"calls": 0, "self_s": 0.0, "max_s": 0.0, "parents": {}}
        )
        entry["calls"] += 1
        entry["self_s"] += own
        entry["max_s"] = max(entry["max_s"], end - start)
        parent_name = spans[parent][0] if parent >= 0 else None
        entry["parents"][parent_name] = entry["parents"].get(parent_name, 0) + 1
    return out
