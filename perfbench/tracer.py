"""Outside-in span tracer for spdcsim.

Spans are recorded by wrapping public functions at every module attribute
that refers to them, so callers that bound a name with ``from .x import f``
see the wrapper too. No source file of the package is touched. A function
that no longer exists is skipped and its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np


def _size_of_result(fn, args, kwargs, result):
    return {"cells": int(np.size(result))}


def _pinhole_counts(fn, args, kwargs, result):
    """Cells and computed tap operations (cells x sum of 2*taps+1 over filtered axes)."""
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    cells = int(np.size(bound["values"]))
    taps_total = 0
    for step in bound["steps"]:
        taps = int(math.floor(bound["diameter"] / (2.0 * abs(step)) + 1e-12))
        if taps > 0:
            taps_total += 2 * taps + 1
    return {"cells": cells, "tap_ops": cells * taps_total}


# span name -> counter of the span's work (None: the span counts calls only)
WRAPPED = {
    "cli.main": None,
    "config.load_config": None,
    "config.resolve": None,
    "dispersion.load_material": None,
    "dispersion.index_ordinary": None,
    "dispersion.index_extraordinary": None,
    "dispersion.walkoff_angle": None,
    "dispersion.group_slowness": None,
    "kernel.mode_function": _size_of_result,
    "trace.spatial_biphoton": _size_of_result,
    "trace.integrate_gaussian": _size_of_result,
    "trace.integrate_gaussian_antidiagonal": _size_of_result,
    "trace.integrate_quadrature": None,
    "trace.pinhole_smooth": _pinhole_counts,
    "analysis.auto_plan": None,
    "analysis.run_scan": None,
    "analysis.summarize": None,
    "analysis.assignment_sensitivity": None,
    "analysis.waist_sweep": None,
    "analysis.find_sign_transition": None,
}

# span fields: name, start, end, parent index (-1 for a root), op id, counts
NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    """Records spans of the wrapped functions while an operation is open."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "spdcsim"]
        for span_name, counter in WRAPPED.items():
            module_name, attr = span_name.split(".")
            module = importlib.import_module(f"spdcsim.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name, original, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, value))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patches):
            setattr(mod, name, value)
        self._patches.clear()

    def _wrap(self, span_name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            return self._record(span_name, fn, counter, args, kwargs)

        return wrapper

    def _record(self, span_name, fn, counter, args, kwargs):
        index = len(self.spans)
        span = [span_name, 0.0, 0.0, self._stack[-1], self._op, None]
        self.spans.append(span)
        self._stack.append(index)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span[COUNTS] = counter(fn, args, kwargs, result)
        return result

    def open_op(self, op_id) -> list:
        """Start the root span of one operation; close it with ``close_op``."""
        span = ["bench.op", 0.0, 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._op = op_id
        span[START] = time.perf_counter()
        return span

    def close_op(self, span) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()
        self._op = None


def summarize_spans(spans) -> dict:
    """Per span name: calls, total seconds, self seconds and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    table: dict[str, dict] = {}
    for index, span in enumerate(spans):
        row = table.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = span[END] - span[START]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time[index]
        for key, value in (span[COUNTS] or {}).items():
            row[key] = row.get(key, 0) + value
    return table


def count_under(spans, name: str, ancestor: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    total = 0
    for span in spans:
        if span[NAME] != name:
            continue
        parent = span[PARENT]
        while parent >= 0:
            if spans[parent][NAME] == ancestor:
                total += 1
                break
            parent = spans[parent][PARENT]
    return total
