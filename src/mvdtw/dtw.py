"""Sakoe-Chiba banded dependent multivariate DTW.

One DP computes every banded DTW in the package: dtw_rows, which sweeps the
anti-diagonals of one query against a set of candidates.  The search runs
it on the candidates it may compare, and dtw_banded on a set of one."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import BLOCK_FLOATS, as_pair, sequential_sums

_INF = float("inf")


@dataclass(frozen=True)
class DtwResult:
    """Banded DTW outcome: the exact band-constrained DTW distance."""

    distance: float


def point_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between broadcast dimension-first points of `a`
    and `b`.  DTW cells, lb_ad and the triangle bound's steps and true
    distances all go through it, so kernels and bounds agree bit for bit."""
    diff = a - b
    return np.sqrt(sequential_sums(diff * diff))


def dtw_banded(q, c, window: int) -> DtwResult:
    """Band-constrained DTW distance between two equal-shape series.

    The warping path runs from cell (0, 0) to (n-1, n-1) moving right, up, or
    diagonally, restricted to |i - j| <= min(window, n-1).  Cell costs are
    Euclidean point distances and the distance is their plain sum along the
    cheapest path: the final of dtw_rows on the one-candidate plane set.
    """
    qa, ca, w = as_pair(q, c, window)
    return DtwResult(float(dtw_rows(qa, ca.T[..., None], w)[0]))


@lru_cache(maxsize=32)
def _sweep_plan(n: int, w: int) -> tuple:
    """Steps and cell layout of the anti-diagonals s = i + j of an (n, w) band.

    dtw_rows keeps each anti-diagonal in an (n + 2, C) buffer whose entry
    i + 1 holds the cell of row i, so entries 0 and n + 1 stand for rows -1
    and n.  Returns (steps, first, ends).  Per step: the slice of its rows
    i, which is also the buffer slice of rows i - 1, and the buffer slice of
    its rows (both None for an empty step).  Numbering the band's cells by
    step and then by rising row, step s holds cells ends[s] to ends[s+1] - 1,
    from row first[s] up (column s - i); dtw_rows builds a chunk's cell
    indices from these, so only O(n) integers are cached per (n, w).
    """
    steps, first, ends = [], [], [0]
    for s in range(2 * n - 1):
        i_lo = max(0, s - (n - 1), (s - w + 1) // 2)  # j <= n - 1, i - j >= -w
        i_hi = min(n - 1, s, (s + w) // 2)
        if i_lo > i_hi:  # window 0: odd anti-diagonals are empty
            steps.append((None, None))
            first.append(0)
            ends.append(ends[-1])
            continue
        steps.append((slice(i_lo, i_hi + 1), slice(i_lo + 1, i_hi + 2)))
        first.append(i_lo)
        ends.append(ends[-1] + i_hi - i_lo + 1)
    return tuple(steps), np.array(first), tuple(ends)


def _chunk_cells(first: np.ndarray, ends: tuple, s0: int, s1: int) -> tuple:
    """Rows and columns of the cells of anti-diagonals s0..s1-1, in the
    order of _sweep_plan's cell numbering."""
    counts = np.diff(ends[s0 : s1 + 1])
    rows = np.arange(ends[s1] - ends[s0]) + np.repeat(
        first[s0:s1] - np.array(ends[s0:s1]) + ends[s0], counts)
    return rows, np.repeat(np.arange(s0, s1), counts) - rows


def _chunk_costs(qa: np.ndarray, planes: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
    """Point costs of the cells (rows[k], cols[k]) for every candidate of
    the (D, n, C) plane set `planes`, as (cells, C).

    The squared differences are added plane by plane, left to right, the
    order of point_costs' sequential_sums, so the bits are its own; the two
    (cells, C) temporaries come from `scratch` (the result is the first).
    """
    count = planes.shape[-1]
    total, diff = scratch[:, : len(rows) * count].reshape(2, len(rows), count)
    for p, (plane, q) in enumerate(zip(planes, qa.T)):
        plane.take(cols, axis=0, out=diff)
        np.subtract(diff, q[rows, None], out=diff)
        np.multiply(diff, diff, out=total if p == 0 else diff)
        if p:
            np.add(total, diff, out=total)
    return np.sqrt(total, out=total)


def dtw_rows(qa: np.ndarray, planes: np.ndarray, w: int):
    """Banded DTW of one query against a set of candidates, all at once.

    `qa` is a validated (n, D) series, `planes` the candidates' validated
    (D, n, C) plane set and `w` the effective window (0 <= w <= n-1).
    Returns the (C,) DTW distances; a candidate's distance does not depend
    on which others share the sweep.

    The DP runs over anti-diagonals i + j = s, whose cells depend only on the
    two previous anti-diagonals, so each step is a few array operations over
    every candidate.  Candidates sit on the last, contiguous axis: each
    anti-diagonal is an (n + 2, C) buffer indexed by row, so a step's cells
    and their neighbours are contiguous (cells, C) blocks.  The point costs
    are computed a chunk of consecutive anti-diagonals at a time, per
    dimension plane (_chunk_costs).  A chunk holds as many cells as fit in
    BLOCK_FLOATS with their temporaries (C floats per cell), and at least one
    anti-diagonal; no whole-band index or cost array is kept.  Every
    candidate runs to the last row: a DP row's minimum crosses a search's
    d_best only near the end, so dropping candidates mid-sweep would cost
    more than the rows it saves.
    """
    _, n, count = planes.shape
    steps, first, ends = _sweep_plan(n, w)
    # an anti-diagonal holds at most w + 1 cells
    scratch = np.empty((2, max(BLOCK_FLOATS, (w + 1) * count)))
    # Buffers for anti-diagonals s-2, s-1 and s, all +inf at first but for
    # the virtual cell (-1, -1) of value 0, which makes cell (0, 0) cost
    # exactly itself.  A step writes its rows and sets the row on either
    # side to +inf (out of the band).  Step s reads rows first[s] - 1 up to
    # its last row of s-1 and s-2, which lie within those edges because
    # first[s] never falls and the last row rises by at most one per step;
    # so no buffer needs refilling.
    two_back, one_back, cur = np.full((3, n + 2, count), _INF)
    two_back[0] = 0.0
    chunk_end = 0
    for s, (below, mine) in enumerate(steps):
        if s == chunk_end:
            fit = bisect_right(ends, ends[s] + BLOCK_FLOATS // count) - 1
            chunk_end, base = max(fit, s + 1), ends[s]
            costs = _chunk_costs(qa, planes, *_chunk_cells(first, ends, s, chunk_end), scratch)
        if below is not None:
            cells = cur[mine]
            np.minimum(one_back[below], one_back[mine], out=cells)  # (i-1, j), (i, j-1)
            np.minimum(cells, two_back[below], out=cells)  # (i-1, j-1)
            np.add(cells, costs[ends[s] - base : ends[s + 1] - base], out=cells)
            cur[below.start] = cur[mine.stop] = _INF
        two_back, one_back, cur = one_back, cur, two_back
    return one_back[n].copy()  # cell (n-1, n-1)
