"""Envelope lower bound (LB_MV) and the all-distances bound (LB_AD).

Both bounds charge each candidate point for the part of its cost that no
in-window query point can avoid: LB_MV measures the distance from the
candidate point to the axis-aligned bounding box of the query window (cheap,
loose); LB_AD measures the distance to the nearest actual query point in the
window (tight, but as expensive as DTW itself).  Every warping path visits
every candidate index at least once inside the band, so summing these
per-point floors never exceeds the banded DTW distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BoundResult, InvalidInputError, as_pair, as_series, as_window, sequential_sums
from .dtw import box_costs, point_costs


@dataclass(frozen=True, eq=False)
class Envelope:
    """Per-index, per-dimension windowed max/min tube around a series.

    upper[i][p] = max over the window [max(0, i-W), min(n-1, i+W)] of the
    source values in dimension p, and lower[i][p] the matching min; windows
    truncate at the series ends.
    """

    upper: np.ndarray
    lower: np.ndarray


def _window_reduce(op: np.ufunc, blocks: np.ndarray, n: int) -> np.ndarray:
    """op (np.maximum or np.minimum) over the first n runs of 2w + 1 rows of
    (B, 2w + 1, D) blocks, O(n) per column (van Herk / Gil-Werman): a run is
    a block's tail plus the next block's head, so op(suffix, prefix scan)."""
    k, dims = blocks.shape[1:]
    head = op.accumulate(blocks, axis=1).reshape(-1, dims)
    tail = op.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].reshape(-1, dims)
    return op(tail[:n], head[k - 1 : k - 1 + n])


def build_envelope(q, window: int) -> Envelope:
    """Build the windowed max/min envelope of a series."""
    qa = as_series(q)
    n, dims = qa.shape
    w = as_window(window, n)
    # Copies of the end points (w before, w or more after, to whole blocks)
    # make every window 2w + 1 rows long without adding a value it lacks.
    k = 2 * w + 1
    rows = -(-(n + 2 * w) // k) * k
    blocks = qa[np.arange(-w, rows - w).clip(0, n - 1)].reshape(-1, k, dims)
    return Envelope(upper=_window_reduce(np.maximum, blocks, n),
                    lower=_window_reduce(np.minimum, blocks, n))


def envelope_deviations(planes: np.ndarray, env: Envelope) -> np.ndarray:
    """Per-point distance (box_costs) from candidate points to the envelope
    box: (n, C) terms of a (D, n, C) plane set."""
    return np.sqrt(box_costs(planes, env.lower.T[..., None], env.upper.T[..., None]))


def lb_mv(c, env: Envelope) -> BoundResult:
    """Envelope lower bound of the banded DTW distance.

    Sums, over candidate indices, the Euclidean distance (box_costs) from each
    candidate point to the envelope box at that index, zero inside the box.
    """
    ca = as_series(c)
    if ca.shape != env.upper.shape:
        raise InvalidInputError(f"shape mismatch: {ca.shape} vs {env.upper.shape}")
    return BoundResult(float(sequential_sums(envelope_deviations(ca.T[..., None], env)[:, 0])))


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
    candidate point to the nearest query point in its window.  One pass per
    window offset o takes the costs d(c_j, q_{j+o}) of every in-range j at
    once, so the temporaries hold a few times D * n floats per candidate."""
    n = len(qa)
    qt = qa.T[..., None]
    terms = point_costs(planes, qt)
    for o in range(1, w + 1):
        for seg, c, q in ((terms[: n - o], planes[:, : n - o], qt[:, o:]),
                          (terms[o:], planes[:, o:], qt[:, : n - o])):
            np.minimum(seg, point_costs(c, q), out=seg)
    return terms
