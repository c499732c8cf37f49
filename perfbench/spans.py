"""Spans around mvdtw's layer calls, installed from outside the library.

`installed(tracer)` rebinds the layer functions that `mvdtw.search` calls,
and `as_series` in every mvdtw module that binds it, to wrappers that record
one span per call: name, group (the search method being run), the benchmark
call it belongs to, start, end and the index of the enclosing span.  Spans
stay in memory; `summary()` turns them into per-(group, name) call counts,
total time and self time, where a span's self time is its duration minus that
of its direct children.

Wrappers also count what each call decided, at the same boundary: bound
calls that reached their `abandon_above` threshold (a prune), DTW calls that
abandoned, and DP cells evaluated.

A layer name the library no longer binds is reported absent, never patched,
so a restructured search degrades the trace instead of breaking the run.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

SEARCH_LAYERS = (
    "dtw_banded", "lb_mv", "lb_ti", "lb_pc", "lb_ad",
    "build_envelope", "build_box_sets", "neighbor_steps",
)
BOUNDS = ("lb_mv", "lb_ti", "lb_pc", "lb_ad")


class Tracer:
    """Collects spans and per-call decision counts for one traced pass."""

    def __init__(self):
        self.spans: list = []  # (name, group, call, start, end, parent index or -1)
        self.counts: dict = {}  # (group, name) -> {"pruned", "abandoned", "cells"}
        self.group = None
        self.call = 0  # index of the benchmark call being traced
        self._stack = [-1]

    @contextmanager
    def span(self, name: str, group: str):
        """Record a root span, e.g. one benchmark call into the library."""
        self.group = group
        idx = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, self.group, self.call, start, end, self._stack[-1])

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so each call records a span and its decision."""

        def traced(*args, **kwargs):
            idx = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            self._observe(name, result, kwargs.get("abandon_above"))
            return result

        return traced

    def _observe(self, name: str, result, threshold) -> None:
        if name != "dtw_banded" and name not in BOUNDS:
            return
        c = self.counts.setdefault((self.group, name), {"pruned": 0, "abandoned": 0, "cells": 0})
        if name == "dtw_banded":
            c["abandoned"] += bool(getattr(result, "abandoned", False))
            c["cells"] += int(getattr(result, "cells", 0))
        elif threshold is not None and result.value >= threshold:
            c["pruned"] += 1

    def summary(self, scales: list | None = None) -> dict:
        """(group, name) -> {"calls", "total_s", "self_s"} over every span.

        With `scales`, each span's times are multiplied by the scale of the
        benchmark call it belongs to (see refclock.Stopwatch).
        """
        child = [0.0] * len(self.spans)
        for name, group, call, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, group, call, start, end, parent) in enumerate(self.spans):
            scale = scales[call] if scales else 1.0
            s = out.setdefault((group, name), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += (end - start) * scale
            s["self_s"] += (end - start - child[i]) * scale
        return out


@contextmanager
def installed(tracer: Tracer):
    """Patch the layer functions for the duration of the block.

    Yields the list of layer names that could not be patched because the
    library no longer binds them.
    """
    search = sys.modules["mvdtw.search"]
    targets = [(search, name) for name in SEARCH_LAYERS]
    targets += [
        (mod, "as_series")
        for modname, mod in sorted(sys.modules.items())
        if (modname == "mvdtw" or modname.startswith("mvdtw.")) and hasattr(mod, "as_series")
    ]
    absent = [name for mod, name in targets if not hasattr(mod, name)]
    if not any(name == "as_series" for _, name in targets):
        absent.append("as_series")
    saved = []
    try:
        for mod, name in targets:
            if hasattr(mod, name):
                orig = getattr(mod, name)
                saved.append((mod, name, orig))
                setattr(mod, name, tracer.wrap(name, orig))
        yield absent
    finally:
        for mod, name, orig in reversed(saved):
            setattr(mod, name, orig)
