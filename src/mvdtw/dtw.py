"""Sakoe-Chiba banded dependent multivariate DTW.

One DP computes every banded DTW in the package: dtw_rows, which sweeps the
anti-diagonals of (query, candidate) columns in offset layout.  The search
runs it on the candidates each query may compare, and dtw_banded on a set of
one."""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import BLOCK_FLOATS, as_pair, sequential_sums

_INF = float("inf")
_SCRATCH = threading.local()  # per thread, dtw_rows' buffer for chunk temporaries and DP cells


@dataclass(frozen=True)
class DtwResult:
    """Banded DTW outcome: the exact band-constrained DTW distance."""

    distance: float


def squared_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between broadcast dimension-first points
    of `a` and `b`, the squared differences added left to right."""
    diff = a - b
    return sequential_sums(np.multiply(diff, diff, out=diff))


def point_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between broadcast dimension-first points of `a`
    and `b`: the square roots of squared_costs.  DTW cells, lb_ad and the
    triangle bound's steps and true distances all go through them, so
    kernels and bounds agree bit for bit."""
    return np.sqrt(squared_costs(a, b))


def dtw_banded(q, c, window: int) -> DtwResult:
    """Band-constrained DTW distance between two equal-shape series.

    The warping path runs from cell (0, 0) to (n-1, n-1) moving right, up, or
    diagonally, restricted to |i - j| <= min(window, n-1).  Cell costs are
    Euclidean point distances and the distance is their plain sum along the
    cheapest path: the final of dtw_rows on the one-candidate plane set.
    """
    qa, ca, w = as_pair(q, c, window)
    return DtwResult(float(dtw_rows(qa.T[..., None], ca.T[..., None], w)[0]))


@lru_cache(maxsize=32)
def _sweep_plan(n: int, w: int) -> tuple:
    """Steps and cell layout of the anti-diagonals s = i + j of an (n, w) band.

    dtw_rows keeps a cell (i, j) at its offset d = i - j, as e = d + w + 1,
    in one of two buffers: even e at entry e // 2 of a (w + 2, C) buffer,
    whose end entries e = 0 and 2w + 2 (d = -(w+1) and w + 1) lie outside
    the band, and odd e at entry e // 2 of a (w + 1, C) buffer.  A step's
    cells share the parity of s, so they fill one contiguous slice of one
    buffer, in the order of their rows.  Returns (keys, steps, first,
    ends): the distinct (parity of e, start, stop) slices of the steps, and
    per step the index of its slice in keys.  Numbering the band's cells by
    step and then by rising row, step s holds cells ends[s] to ends[s+1] - 1,
    from row first[s] up (column s - i); dtw_rows builds a chunk's cell
    indices from these, so only O(n) integers are cached per (n, w).
    """
    keys, steps, first, ends = {}, [], [], [0]
    for s in range(2 * n - 1):
        i_lo = max(0, s - (n - 1), (s - w + 1) // 2)  # j <= n - 1, i - j >= -w
        i_hi = min(n - 1, s, (s + w) // 2)  # i_lo - 1 on window 0's odd (empty) steps
        e = 2 * i_lo - s + w + 1
        key = (e % 2, e // 2, e // 2 + i_hi - i_lo + 1)
        steps.append(keys.setdefault(key, len(keys)))
        first.append(i_lo)
        ends.append(ends[-1] + i_hi - i_lo + 1)
    return tuple(keys), tuple(steps), np.array(first), tuple(ends)


def _chunk_cells(first: np.ndarray, ends: tuple, s0: int, s1: int) -> tuple:
    """Rows and columns of the cells of anti-diagonals s0..s1-1, in the
    order of _sweep_plan's cell numbering."""
    counts = np.diff(ends[s0 : s1 + 1])
    rows = np.arange(ends[s1] - ends[s0]) + np.repeat(
        first[s0:s1] - np.array(ends[s0:s1]) + ends[s0], counts)
    return rows, np.repeat(np.arange(s0, s1), counts) - rows


def _chunk_costs(qplanes: np.ndarray, planes: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
    """Point costs of the cells (rows[k], cols[k]) for every column of the
    (D, n, C) plane set `planes` against its query in `qplanes`, as (cells, C).

    The squared differences are added plane by plane, left to right, the
    order of point_costs' sequential_sums, so the bits are its own; the two
    (cells, C) temporaries come from the flat `scratch` (the result is the first).
    """
    count = planes.shape[-1]
    total, diff = scratch[: 2 * len(rows) * count].reshape(2, len(rows), count)
    for p, (plane, q) in enumerate(zip(planes, qplanes)):
        plane.take(cols, axis=0, out=diff)
        np.subtract(diff, q.take(rows, axis=0), out=diff)
        np.multiply(diff, diff, out=total if p == 0 else diff)
        if p:
            np.add(total, diff, out=total)
    return np.sqrt(total, out=total)


def dtw_rows(qplanes: np.ndarray, planes: np.ndarray, w: int):
    """Banded DTW of (query, candidate) columns, all at once.

    `planes` is the candidates' validated (D, n, C) plane set and `qplanes`
    the queries' planes of the same D and n, either (D, n, 1), one query for
    every candidate, or (D, n, C), column k's query for candidate k; `w` is
    the effective window (0 <= w <= n-1).  Returns the (C,) DTW distances; a
    column's distance does not depend on which others share the sweep, so
    one sweep over the columns of several queries gives each query's
    distances bit for bit.

    The DP runs over anti-diagonals i + j = s, whose cells depend only on the
    two previous anti-diagonals, so each step is a few array operations over
    every candidate.  Candidates sit on the last, contiguous axis, and cells
    at their offset i - j in _sweep_plan's two buffers, (2w + 3)·C floats.
    A cell's entry still holds its diagonal predecessor from step s-2, and
    its other two are the other buffer's entries on either side, so a step
    updates its slice in place.  The point costs are computed a chunk
    of consecutive anti-diagonals at a time, per dimension plane
    (_chunk_costs).  A chunk holds as many cells as fit in BLOCK_FLOATS with
    their temporaries (C floats per cell), and at least one anti-diagonal;
    no whole-band index or cost array is kept, and a sweep within
    BLOCK_FLOATS takes them and its DP cells from its thread's buffer, so no
    search frees and faults them in again.  Every candidate runs to the last
    row: a DP row's minimum crosses a search's d_best only near the end, so
    dropping candidates mid-sweep would cost more than the rows it saves.
    """
    _, n, count = planes.shape
    keys, steps, first, ends = _sweep_plan(n, w)
    size = max(BLOCK_FLOATS, (w + 1) * count)  # an anti-diagonal holds at most w + 1 cells
    held = max(BLOCK_FLOATS, (2 * w + 3) * count)  # the DP buffers' region, after the costs'
    scratch = getattr(_SCRATCH, "buffer", None)
    if scratch is None or len(scratch) != 2 * size + held:
        scratch = np.empty(2 * size + held)
        if len(scratch) == 3 * BLOCK_FLOATS:
            _SCRATCH.buffer = scratch
    # All +inf but for the virtual cell (-1, -1) of value 0 (e = w + 1), which
    # makes cell (0, 0) cost exactly itself; cell (n-1, n-1) ends there.  Step
    # t writes offsets |d| <= min(t, w) only, so the predecessors step s reads
    # outside the square (|d| >= s) or the band (|d| = w + 1) stay +inf.
    buffers = scratch[2 * size : 2 * size + (2 * w + 3) * count].reshape(2 * w + 3, count)
    buffers.fill(_INF)
    by_parity = buffers[: w + 2], buffers[w + 2 :]
    final = by_parity[(w + 1) % 2][(w + 1) // 2]
    final[:] = 0.0
    # Per key, its cells and their neighbours e - 1 and e + 1 in the other
    # buffer: entries e // 2 - 1 and e // 2 for even e, e // 2 and e // 2 + 1
    # for odd e.
    views = [(by_parity[p][a:b], by_parity[1 - p][a + p - 1 : b + p - 1],
              by_parity[1 - p][a + p : b + p]) for p, a, b in keys]
    chunk_end = 0
    for s, key in enumerate(steps):
        if s == chunk_end:
            fit = bisect_right(ends, ends[s] + BLOCK_FLOATS // count) - 1
            chunk_end, base = max(fit, s + 1), ends[s]
            costs = _chunk_costs(qplanes, planes, *_chunk_cells(first, ends, s, chunk_end), scratch)
        cells, left, right = views[key]
        np.minimum(cells, left, out=cells)
        np.minimum(cells, right, out=cells)
        np.add(cells, costs[ends[s] - base : ends[s + 1] - base], out=cells)
    return final.copy()
