"""Triangle-inequality lower bound on banded DTW (LB_TI, periodic with a
true top slot).

Instead of computing the distance from every candidate point to every query
point in its window (the all-distances bound), this bound maintains, for each
in-window (query index, candidate index) pair, an interval [L, U] around the
true point distance and advances it with scalar operations:

    moving from q_{i-1} to q_i with step s = d(q_{i-1}, q_i):
        L' = max(L - s, s - U, 0)        U' = U + s

Intervals are anchored at true distances: the whole window every
`refresh_period` rows (row 0 included), and the window's newest (top) slot on
every row, so every L is a valid floor of its point distance.  The bound is
the sum, over candidate indices, of the smallest floor seen for that
candidate across the rows whose window contains it; every warping path
visits every candidate index inside the band, so the sum never exceeds the
banded DTW distance.  Intervals loosen as they are advanced (the gap U - L
never shrinks), which is why they are re-anchored.

A one-sided safety pad of 2**-46 * (U + s) is folded into every advance.
Floating-point Euclidean distances can violate the triangle inequality by a
few ulps of the operand magnitudes (easily observed on collinear data), and
the pad keeps every propagated L at or below the *computed* point distance so
that bound/DTW comparisons need no tolerance.  The pad is orders of magnitude
below any decision threshold; steps that are exactly zero skip it, since they
introduce no rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import (
    BLOCK_FLOATS, BoundResult, InvalidInputError, SearchParams, as_int, as_pair, as_series,
    sequential_sums,
)
from .dtw import point_costs

_PROP_SLACK = 2.0 ** -46
_INF = float("inf")


def neighbor_steps(series) -> np.ndarray:
    """Distances between consecutive points of a series, shape (n-1,)."""
    a = as_series(series).T
    return point_costs(a[:, 1:], a[:, :-1])


@dataclass(frozen=True, eq=False)
class NeighborDistances:
    """Adjacent-point distances of a query, computed once and reused."""

    query_steps: np.ndarray


def _as_query_steps(neighbor: NeighborDistances, n: int) -> np.ndarray:
    """`neighbor.query_steps` as n - 1 finite floats >= 0, else
    InvalidInputError."""
    try:
        steps = np.asarray(neighbor.query_steps, dtype=np.float64)
        if steps.shape == (n - 1,) and np.isfinite(steps).all() and (steps >= 0.0).all():
            return steps
    except (AttributeError, TypeError, ValueError):
        pass
    raise InvalidInputError(f"neighbor must hold {n - 1} finite query steps >= 0, "
                            f"got {getattr(neighbor, 'query_steps', neighbor)!r}")


def lb_ti(
    q,
    c,
    window: int,
    refresh_period: int = SearchParams.refresh_period,
    neighbor: NeighborDistances | None = None,
) -> BoundResult:
    """Triangle-inequality lower bound of the banded DTW distance.

    refresh_period
        rows between re-anchoring the whole window at true distances (>= 1)
    neighbor
        precomputed adjacent-point distances of `q`, n - 1 finite values
        >= 0; built if omitted
    """
    qa, ca, w = as_pair(q, c, window)
    refresh_period = as_int(refresh_period, "refresh_period", 1)
    qsteps = neighbor_steps(qa) if neighbor is None else _as_query_steps(neighbor, len(qa))
    terms = lb_ti_terms(qa, ca.T[..., None], w, refresh_period, qsteps)
    return BoundResult(float(sequential_sums(terms[:, 0])))


def lb_ti_terms(qa: np.ndarray, planes: np.ndarray, w: int, refresh_period: int,
                qsteps: np.ndarray) -> np.ndarray:
    """Per-point terms of lb_ti for a (D, n, C) plane set of candidates:
    term (j, c) is the smallest floor candidate c's column j gets over every
    row whose window holds it.

    `qa` is a validated (n, D) query, `planes` a validated plane set of its
    shape, `w` the effective window, `refresh_period` >= 1, which only this
    kernel caps at n (P), and `qsteps` the query's neighbor_steps.  Returns an
    (n, C) array.  Blocks of P rows advance together, every candidate at
    once, in chunks of as many blocks as fit in BLOCK_FLOATS, at least one: a
    block holds 2w + P interval slots per candidate, and the temporaries D
    floats per slot.  A chunk edge-extends only the columns its blocks hold.
    """
    dims, n, count = planes.shape
    p = min(refresh_period, n)

    # Rows fall into blocks of p, each starting at a re-anchored row r.  No
    # interval crosses a block boundary, so blocks advance together, one row
    # offset t at a time, in chunks that bound the working memory.  Slot k of
    # block b holds column r_b - w + k: slots 0..2w are row r's window, and
    # slot 2w + t is the top slot that row r + t gains, which starts at its
    # true distance.  A column's term is its smallest floor over every row
    # whose window holds it, across blocks.
    span = 2 * w + p
    stalls = not qsteps.all()  # the query repeats a point somewhere
    # Smallest floors, flat: candidate c's column j at c * width + w + j, with
    # room for the columns outside [0, n) that edge slots hold, so every slot
    # is scattered unmasked and those columns are dropped at the end.
    width = n + span
    colmin = np.full(count * width, _INF)
    chunk = p * max(1, BLOCK_FLOATS // (span * dims * count))
    for first in range(0, n, chunk):
        anchors = np.arange(first, min(n, first + chunk), p)
        # slots k0..k1-1 hold a column of [0, n) in at least one block
        k0, k1 = max(0, w - anchors[-1]), min(span, n + w - anchors[0])
        top0 = min(2 * w + 1, k1) - k0  # first top slot, local index
        # One interval row per (block, candidate), block-major, so the rows
        # of the blocks that reach a given row offset form a prefix.
        shape = (len(anchors), count, k1 - k0)
        # the chunk's columns edge-extended: slot k of the block at row r
        # holds column r - w + k, clipped to [0, n)
        cols = planes.take(np.clip(np.arange(first + k0, anchors[-1] + k1) - w, 0, n - 1), axis=1)
        ds, rs, cs = cols.strides
        points = as_strided(cols, (dims, *shape), (ds, p * rs, cs, rs), writeable=False)
        lo = np.empty(shape)
        lo[..., :top0] = point_costs(qa.T[:, anchors, None, None], points[..., :top0])
        tops = np.minimum(anchors[:, None] + np.arange(k0 + top0 - 2 * w, k1 - 2 * w), n - 1)
        lo[..., top0:] = point_costs(qa.T[:, tops[:, None]], points[..., top0:])
        lo = lo.reshape(-1, k1 - k0)
        up = lo.copy()
        best = lo.copy()  # smallest floor of each slot over the block's rows so far
        best[:, top0:] = _INF
        # the step into row r + t of each row's block
        steps = np.repeat(qsteps[np.minimum(anchors[:, None] + np.arange(p - 1), n - 2)],
                          count, axis=0)
        for t in range(1, p):
            nb = count * (len(anchors) - (anchors[-1] + t >= n))  # rows that reach row r + t
            s = steps[:nb, t - 1 : t]
            prev = slice(max(t - 1 - k0, 0), min(t + 2 * w, k1) - k0)  # row r + t - 1's window
            sl_lo = lo[:nb, prev]
            sl_up = up[:nb, prev]
            # max(L - s, s - U, 0) less the pad, floored at 0: flooring once,
            # after the pad, gives the same bits
            base = np.maximum(sl_lo - s, s - sl_up)
            grown = sl_up + s
            pad = grown * _PROP_SLACK
            if stalls:  # a zero step leaves its intervals as they are
                pad[s[:, 0] == 0.0] = 0.0
            np.maximum(base - pad, 0.0, out=sl_lo)
            np.add(grown, pad, out=sl_up)
            win = slice(max(t - k0, 0), min(t + 2 * w + 1, k1) - k0)  # row r + t's window
            np.minimum(best[:nb, win], lo[:nb, win], out=best[:nb, win])
        at = anchors[:, None, None] + np.arange(k0, k1) + np.arange(0, count * width, width)[:, None]
        np.minimum.at(colmin, at.ravel(), best.ravel())
    return colmin.reshape(count, width)[:, w : w + n].T
