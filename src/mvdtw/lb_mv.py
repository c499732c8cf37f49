"""Envelope lower bound (LB_MV) and the all-distances bound (LB_AD).

Both bounds charge each candidate point for the part of its cost that no
in-window query point can avoid: LB_MV measures the distance from the
candidate point to the axis-aligned bounding box of the query window (cheap,
loose); LB_AD measures the distance to the nearest actual query point in the
window (tight, but as expensive as DTW itself).  Every warping path visits
every candidate index at least once inside the band, so summing these
per-point floors never exceeds the banded DTW distance.

The envelope is the one-box case of the clustering bound's box sets: a
BoxGrouping with one box per query index, measured by lb_pc's point-to-box
kernel, so lb_mv and lb_pc compare exactly.
"""

from __future__ import annotations

import numpy as np

from .core import BLOCK_FLOATS, BoundResult, as_pair, as_series, as_window, sequential_sums
from .dtw import point_costs
from .lb_pc import BoxGrouping, lb_pc


def _window_reduce(op: np.ufunc, blocks: np.ndarray, n: int) -> np.ndarray:
    """op (np.maximum or np.minimum) over the first n runs of 2w + 1 columns
    of (D, B, 2w + 1) blocks, O(n) per dimension (van Herk / Gil-Werman): a
    run is a block's tail plus the next block's head, so op(suffix, prefix
    scan).  Returns a C-contiguous (D, n, 1) array."""
    dims, _, k = blocks.shape
    head = op.accumulate(blocks, axis=2).reshape(dims, -1)
    tail = op.accumulate(blocks[..., ::-1], axis=2)[..., ::-1].reshape(dims, -1)
    return np.ascontiguousarray(op(tail[:, :n], head[:, k - 1 : k - 1 + n])[..., None])


def build_envelope(q, window: int) -> BoxGrouping:
    """The windowed min/max envelope of a series, as the box grouping with
    one box per index: lo[p, i, 0] is the min over the window
    [max(0, i-W), min(n-1, i+W)] of the series in dimension p, and hi the
    matching max; windows truncate at the series ends."""
    qa = as_series(q)
    n, dims = qa.shape
    w = as_window(window, n)
    # Copies of the end points (w before, w or more after, to whole blocks)
    # make every window 2w + 1 points long without adding a value it lacks.
    k = 2 * w + 1
    rows = -(-(n + 2 * w) // k) * k
    blocks = qa.T[:, np.arange(-w, rows - w).clip(0, n - 1)].reshape(dims, -1, k)
    return BoxGrouping(lo=_window_reduce(np.minimum, blocks, n),
                       hi=_window_reduce(np.maximum, blocks, n))


def lb_mv(c, env: BoxGrouping) -> BoundResult:
    """Envelope lower bound of the banded DTW distance: the sum, over
    candidate indices, of the Euclidean distance from each candidate point
    to the envelope box at that index, zero inside the box.  This is lb_pc
    on the one-box grouping build_envelope gives."""
    return lb_pc(c, env)


def lb_ad(q, c, window: int) -> BoundResult:
    """All-distances lower bound: for every candidate point, the distance to
    the nearest query point inside its window, summed over candidate indices.

    Dominates lb_mv (a box distance never exceeds the distance to a point
    inside the box) and every bound in this package that relaxes point
    distances, at the cost of O(n * W * D) work per pair.
    """
    qa, ca, w = as_pair(q, c, window)
    return BoundResult(float(sequential_sums(lb_ad_terms(qa, ca.T[..., None], w)[:, 0])))


def lb_ad_terms(qa: np.ndarray, planes: np.ndarray, w: int) -> np.ndarray:
    """Per-point terms of lb_ad, (n, C) for a validated (n, D) query, a
    (D, n, C) plane set and the effective window `w`: the distance from each
    candidate point to the nearest query point in its window.  Rows run in
    chunks whose temporaries, D * C floats a row, fit in BLOCK_FLOATS, at
    least one row a chunk; one pass per window offset o takes the costs
    d(c_j, q_{j+o}) of the chunk's rows j with q_{j+o} in range at once."""
    dims, n, count = planes.shape
    qt = qa.T[..., None]
    terms = np.full((n, count), np.inf)
    rows = max(1, BLOCK_FLOATS // (dims * count))
    for r in range(0, n, rows):
        for o in range(-w, w + 1):
            a = max(r, -o)  # the chunk's rows j with q_{j+o} in range: a..b-1
            b = max(a, min(r + rows, n, n - o))
            np.minimum(terms[a:b], point_costs(planes[:, a:b], qt[:, a + o : b + o]), out=terms[a:b])
    return terms
