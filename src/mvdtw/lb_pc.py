"""Point-clustering lower bound on banded DTW (LB_PC).

The envelope bound collapses each query window to one axis-aligned box, which
gets very loose when the window's points sit in separated clumps.  This bound
quantizes each window's points onto a grid of `levels` cells per dimension
and charges each candidate point the distance to its nearest cell box
instead of the distance to the single envelope box.  The box cap is a rank
threshold over the points sorted by cell: each non-empty cell of rank below
`max_boxes` opens a box, and the last box runs on over the later cells.

To amortize the clustering cost, boxes are built per *expanded window*: a
merge of `group_width` consecutive original windows.  Expanded window g
covers query indices [max(0, g*w - W), min(n-1, g*w + W + w - 1)] (stride w),
which contains the window of every original index mapped to it, so reusing
its boxes for those windows stays sound, just looser.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .core import (
    BLOCK_FLOATS, BoundResult, InvalidInputError, as_int, as_series, as_window, sequential_sums,
)


@dataclass(frozen=True, eq=False)
class BoxGrouping:
    """Box sets of all expanded windows of one query, ready for evaluation.

    Expanded window g covers the windows of query indices
    [g * group_width, (g + 1) * group_width).  `lo`/`hi` hold, dimension
    first, the box set covering each query index as (D, n, K_max) arrays,
    padded with +inf/-inf so unused slots evaluate to infinite distance.
    The envelope (lb_mv.build_envelope) is the case of one box per index.
    """

    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True, eq=False)
class _GroupedCells:
    """Every expanded window's points in stable (window, cell) order, before
    the box cap.  `rank` (G, t_max) holds each cell's rank within its window
    at the cell's first row, and int64's maximum on every other row."""

    points: np.ndarray
    rank: np.ndarray
    group_width: int
    n: int


def window_extrema(qa: np.ndarray, before: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-dimension min and max of the (n, D) series `qa` over the
    windows [i - before, i - before + length - 1] of every index i,
    truncated at the series ends, as two C-contiguous (D, n) arrays, in
    O(n) per dimension (van Herk / Gil-Werman).  Copies of the end points
    (`before` ahead, enough after to fill whole blocks) make every window
    `length` points long without adding a value it lacks; a window is then a
    block's tail plus the next block's head, so min(suffix scan, prefix
    scan).  One pass over the series and its negation gives both extrema:
    -min(-x) picks the element max(x) picks, since negation reverses every
    comparison.  Both the envelope and the box sets take their ranges from
    it."""
    n, dims = qa.shape
    k = length
    idx = np.arange(-before, -(-(n + k - 1) // k) * k - before)
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, n - 1, out=idx)
    blocks = np.concatenate((qa.T, -qa.T)).take(idx, axis=1).reshape(2 * dims, -1, k)
    head = np.minimum.accumulate(blocks, axis=2).reshape(2 * dims, -1)
    tail = np.minimum.accumulate(blocks[..., ::-1], axis=2)[..., ::-1].reshape(2 * dims, -1)
    lo = np.minimum(tail[:, :n], head[:, k - 1 : k - 1 + n], order="C")
    return lo[:dims], np.negative(lo[dims:])


def _grouped_cells(
    qa: np.ndarray, window: int, group_width: int, levels: int,
    min_cell_frac: float, ref: np.ndarray,
) -> _GroupedCells:
    """Quantize every expanded window of a query in one batched pass."""
    n, dims = qa.shape
    w = as_window(window, n)
    groups = (n - 1) // group_width + 1
    g_arr = np.arange(groups)
    a = np.maximum(0, g_arr * group_width - w)
    b = np.minimum(n - 1, g_arr * group_width + w + group_width - 1)

    # Gather every window's points into one (G, T, D) block; short windows
    # repeat their last point, which changes neither ranges nor cell boxes.
    t_max = int((b - a).max()) + 1
    idx = np.minimum(a[:, None] + np.arange(t_max)[None, :], b[:, None])
    pts = qa.take(idx, axis=0)

    # Window g's ranges: the running extrema of windows 2w + group_width
    # long, at the window starts g * group_width - w.
    lo, hi = window_extrema(qa, w, 2 * w + group_width)
    mn = lo[:, ::group_width].T
    rng = hi[:, ::group_width].T - mn
    split = (rng > 0.0) & (rng >= min_cell_frac * ref)
    lev = np.where(split, levels, 1)
    seg = np.where(split, rng / lev, 1.0)
    # Unsplit dimensions have one level, so the clip puts them in cell 0.
    cell_idx = ((pts - mn[:, None, :]) / seg[:, None, :]).astype(np.int64)
    np.maximum(cell_idx, 0, out=cell_idx)
    np.minimum(cell_idx, (lev - 1)[:, None, :], out=cell_idx)

    # Cell keys ordered as (group, cell index tuple), dimension 0 most
    # significant: the group and the cell indices packed mixed radix, with
    # `levels` per dimension.  Where the next index could overflow int64,
    # the packed prefix is first replaced by its rank among the distinct
    # prefixes, which keeps their order.  One stable sort then orders each
    # group's cells lexicographically, each cell's points in window order.
    keys = g_arr.repeat(t_max)
    radix = groups
    flat_idx = cell_idx.reshape(-1, dims)
    for p in range(dims):
        if radix * levels > 1 << 63:
            distinct, keys = np.unique(keys, return_inverse=True)
            radix = len(distinct)
        keys = keys * levels + flat_idx[:, p]
        radix *= levels

    # The group leads the key, so window g keeps rows [g*t_max, (g+1)*t_max)
    # and a cell's rank is its count of cells less its window's first row's.
    order = keys.argsort(kind="stable")
    sorted_keys = keys[order]
    first = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])).reshape(groups, t_max)
    seen = first.cumsum().reshape(groups, t_max)
    rank = np.where(first, seen - seen[:, :1], np.iinfo(np.int64).max)
    return _GroupedCells(pts.reshape(-1, dims).take(order, axis=0), rank, group_width, n)


def _cap_cells(cells: _GroupedCells, max_boxes: int) -> BoxGrouping:
    """Apply the per-group box cap: a box starts at every cell of rank below
    `max_boxes` and runs to the next box's start, so the last box runs to its
    window's end and absorbs the overflow cells."""
    groups, t_max = cells.rank.shape
    starts = np.flatnonzero(cells.rank < max_boxes)
    box_group, slot = starts // t_max, cells.rank.ravel()[starts]
    box_lo = np.minimum.reduceat(cells.points, starts, axis=0)
    box_hi = np.maximum.reduceat(cells.points, starts, axis=0)

    # lo and hi of every set padded to K_max slots with +inf/-inf, then laid
    # out dimension first, index i getting set i // group_width
    pads = np.full((2, groups, int(slot.max()) + 1, cells.points.shape[1]), np.inf)
    pads[1] = -np.inf
    pads[0, box_group, slot] = box_lo
    pads[1, box_group, slot] = box_hi
    lo, hi = pads.transpose(0, 3, 1, 2).repeat(cells.group_width, axis=2)[:, :, : cells.n]
    return BoxGrouping(lo, hi)


def as_dim_range(dim_range, qa: np.ndarray) -> np.ndarray:
    """The reference range of the cell-size floor for the (n, D) series
    `qa`: `dim_range` as D finite floats, or qa's own range when None."""
    try:
        ref = np.ptp(qa, axis=0) if dim_range is None else np.asarray(dim_range, np.float64)
        if ref.shape == qa.shape[1:] and np.isfinite(ref).all():
            return ref
    except (TypeError, ValueError):
        pass
    raise InvalidInputError(f"dim_range must be {qa.shape[1]} finite values, got {dim_range!r}")


def build_box_sets(
    q,
    window: int,
    group_width: int,
    levels: int,
    max_boxes: int,
    min_cell_frac: float,
    dim_range: np.ndarray | None = None,
) -> BoxGrouping:
    """Cluster a query's windows into box sets, one per expanded window.

    Each dimension of an expanded window's points is split into `levels`
    equal segments, except dimensions whose range is zero or falls below
    min_cell_frac * dim_range, which stay whole.  With the points sorted
    lexicographically by cell index, every non-empty cell of rank below
    `max_boxes` opens a box, the tight bounding box of the points up to the
    next box's cell: the cells from rank max_boxes-1 onward merge into one.
    `dim_range` is the reference range of the cell-size floor (normally the
    dataset's normalized value range), checked by as_dim_range.  All windows
    are quantized in one batched pass.
    """
    qa = as_series(q)
    group_width = as_int(group_width, "group_width", 1)
    levels = as_int(levels, "levels", 1)
    max_boxes = as_int(max_boxes, "max_boxes", 1)
    if not (isinstance(min_cell_frac, Real) and 0.0 <= min_cell_frac < np.inf):
        raise InvalidInputError(f"min_cell_frac must be a finite number >= 0, got {min_cell_frac!r}")
    ref = as_dim_range(dim_range, qa)
    cells = _grouped_cells(qa, window, group_width, levels, min_cell_frac, ref)
    return _cap_cells(cells, max_boxes)


def lb_pc(c, grouping: BoxGrouping) -> BoundResult:
    """Clustering lower bound: each candidate point pays the distance to the
    nearest box of the box set covering its window (lb_pc_terms), summed
    over indices."""
    ca = as_series(c)
    shape = grouping.lo.shape[1::-1]  # (n, D)
    if ca.shape != shape:
        raise InvalidInputError(f"shape mismatch: {ca.shape} vs {shape}")
    return BoundResult(float(sequential_sums(lb_pc_terms(ca.T[..., None], grouping)[:, 0])))


def lb_pc_terms(planes: np.ndarray, grouping: BoxGrouping) -> np.ndarray:
    """Per-point terms of lb_pc, (n, C) for a validated (D, n, C) plane set
    of the grouping's shape: the Euclidean distance from each candidate
    point to the nearest box of its box set, zero inside a box.  This is the
    package's one point-to-box kernel; lb_mv runs it on the one-box envelope.
    Row chunks take K * D * C floats a row (K boxes) within BLOCK_FLOATS, one row at least."""
    dims, n, count = planes.shape
    terms = np.empty((n, count))
    rows = max(1, BLOCK_FLOATS // (grouping.lo.shape[2] * dims * count))
    for r in range(0, n, rows):
        x = planes[:, r : r + rows, None]
        # dev = max(x - hi, lo - x, 0), squared in place.  Every real box has
        # lo <= hi, so at most one of x - hi and lo - x is positive and its
        # square is the sum of both one-sided squares bit for bit (the other
        # adds +0.0).  Padded slots (lo = +inf, hi = -inf) give +inf anyway.
        dev = x - grouping.hi[:, r : r + rows, :, None]
        np.maximum(dev, grouping.lo[:, r : r + rows, :, None] - x, out=dev)
        np.maximum(dev, 0.0, out=dev)
        np.sqrt(sequential_sums(np.multiply(dev, dev, out=dev)).min(axis=1), out=terms[r : r + rows])
    return terms
