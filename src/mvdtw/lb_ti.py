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

The batched kernel, lb_ti_terms, advances blocks of P = refresh_period rows,
each from a re-anchored row r; no interval crosses a block boundary, so the
blocks advance together, one row offset t at a time.  Slot k of the block at
row r holds column r - W + k: slots 0..2W are row r's window, slot 2W + t the
top slot row r + t gains.  Slots are the rows of four (2W + P, blocks·C)
buffers (L, U, smallest floor, temporary), a column per (block, candidate)
pair, so a row's window is a run of slot rows and every call spans all pairs.
The advance runs in place and the true distances are summed a plane at a
time, so a chunk takes as many blocks as fit 4·(2W + P)·C floats each in
BLOCK_FLOATS, whatever D is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    (n, C) array.  Blocks advance as the module docstring says, in buffers
    allocated once, a chunk of max(1, BLOCK_FLOATS // (4·(2w + P)·C)) blocks
    at a time, each edge-extending only the columns its blocks hold.
    """
    _, n, count = planes.shape
    p = min(refresh_period, n)
    span = 2 * w + p
    stalls = not qsteps.all()  # the query repeats a point somewhere
    # Smallest floors, candidate c's column j at (w + j)·C + c, with room for
    # the columns outside [0, n) that edge slots hold, dropped at the end.
    colmin = np.full((n + span) * count, _INF)
    blocks = max(1, BLOCK_FLOATS // (4 * span * count))
    buffers = np.empty(4 * span * min(blocks, -(-n // p)) * count)
    for first in range(0, n, p * blocks):
        anchors = np.arange(first, min(n, first + p * blocks), p)
        # slots k0..k1-1 hold a column of [0, n) in at least one block
        k0, k1 = max(0, w - anchors[-1]), min(span, n + w - anchors[0])
        # columns block-major: the blocks that reach a row offset are a prefix
        lo, up, best, tmp = buffers[: 4 * (k1 - k0) * len(anchors) * count].reshape(4, k1 - k0, -1)
        # True distances, squared differences added to 0 plane by plane as
        # point_costs adds them; top slot k pairs query row r + k - 2w (< n).
        slots = np.arange(k0, k1)[:, None]
        reach = anchors + slots  # the slot's column, at its place in colmin
        cols = np.minimum(np.maximum(reach - w, 0), n - 1)
        rows = np.minimum(anchors + np.maximum(slots - 2 * w, 0), n - 1)
        total, diff = lo.reshape(*cols.shape, count), tmp.reshape(*cols.shape, count)
        total.fill(0.0)
        for plane, q in zip(planes, qa.T):
            np.subtract(plane.take(cols, axis=0, out=diff), q.take(rows)[..., None], out=diff)
            np.add(total, np.multiply(diff, diff, out=diff), out=total)
        up[:] = best[:] = np.sqrt(lo, out=lo)  # a top slot's floor is its first row's
        # the step into row r + t of each column's block
        steps = np.repeat(qsteps[np.minimum(anchors + np.arange(p - 1)[:, None], n - 2)], count, 1)
        for t in range(1, p):
            nb = count * (len(anchors) - (anchors[-1] + t >= n))  # columns that reach row r + t
            s = steps[t - 1, :nb]
            # Row r + t - 1's window, less the slot that leaves it, advances in
            # place: L = max(max(L - s, s - U) - pad, 0) and U += s + pad, with
            # pad = (U + s)·2**-46 (flooring once, after the pad, is exact).
            held = slice(max(t - k0, 0), min(t + 2 * w, k1) - k0)
            sl_lo, sl_up, pad = lo[held, :nb], up[held, :nb], tmp[held, :nb]
            np.subtract(sl_lo, s, out=pad)
            np.subtract(s, sl_up, out=sl_lo)
            np.maximum(pad, sl_lo, out=sl_lo)
            np.add(sl_up, s, out=sl_up)
            np.multiply(sl_up, _PROP_SLACK, out=pad)
            if stalls:  # a zero step leaves its intervals as they are
                pad[:, s == 0.0] = 0.0
            np.subtract(sl_lo, pad, out=sl_lo)
            np.maximum(sl_lo, 0.0, out=sl_lo)
            np.add(sl_up, pad, out=sl_up)
            win = slice(held.start, min(t + 2 * w + 1, k1) - k0)  # row r + t's window
            np.minimum(best[win, :nb], lo[win, :nb], out=best[win, :nb])
        np.minimum.at(colmin, (reach[..., None] * count + np.arange(count)).ravel(), best.ravel())
    return colmin.reshape(-1, count)[w : w + n]
