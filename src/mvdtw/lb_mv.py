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
from .dtw import squared_costs
from .lb_pc import BoxGrouping, lb_pc, window_extrema


def build_envelope(q, window: int) -> BoxGrouping:
    """The windowed min/max envelope of a series, as the box grouping with
    one box per index: lo[p, i, 0] is the min over the window
    [max(0, i-W), min(n-1, i+W)] of the series in dimension p, and hi the
    matching max; windows truncate at the series ends."""
    qa = as_series(q)
    w = as_window(window, qa.shape[0])
    lo, hi = window_extrema(qa, w, 2 * w + 1)
    return BoxGrouping(lo=lo[..., None], hi=hi[..., None])


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
    candidate point to the nearest query point in its window.  At w = 0 this
    is the cost of the diagonal path, term by term.  Rows run in chunks
    whose temporaries, D * C floats a row, fit in BLOCK_FLOATS, at least one
    row a chunk; one pass per window offset o takes the squared costs
    |c_j - q_{j+o}|^2 of the chunk's rows j with q_{j+o} in range at once.
    The minimum over offsets is kept squared and each term takes one square
    root at the end: a correctly rounded square root is monotone, so these
    are the bits of the minimum of the point_costs."""
    dims, n, count = planes.shape
    qt = qa.T[..., None]
    terms = np.full((n, count), np.inf)
    rows = max(1, BLOCK_FLOATS // (dims * count))
    for r in range(0, n, rows):
        for o in range(-w, w + 1):
            a = max(r, -o)  # the chunk's rows j with q_{j+o} in range: a..b-1
            b = max(a, min(r + rows, n, n - o))
            np.minimum(terms[a:b], squared_costs(planes[:, a:b], qt[:, a + o : b + o]), out=terms[a:b])
    return np.sqrt(terms, out=terms)
