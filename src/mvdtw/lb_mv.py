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

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import BoundResult, InvalidInputError, as_series, sum_last, sum_with_abandon
from .dtw import cost_band


@dataclass(frozen=True, eq=False)
class Envelope:
    """Per-index, per-dimension windowed max/min tube around a series.

    upper[i][p] = max over the window [max(0, i-W), min(n-1, i+W)] of the
    source values in dimension p, and lower[i][p] the matching min; windows
    truncate at the series ends.
    """

    upper: np.ndarray
    lower: np.ndarray
    window: int

    @property
    def n(self) -> int:
        return self.upper.shape[0]

    @property
    def dims(self) -> int:
        return self.upper.shape[1]


def _sliding_minmax(col: list, n: int, w: int) -> tuple[list, list]:
    """Windowed min/max of one value column via monotone deques, O(n)."""
    mins = [0.0] * n
    maxs = [0.0] * n
    dq_min: deque = deque()
    dq_max: deque = deque()
    t = 0
    for i in range(n):
        hi = i + w
        if hi > n - 1:
            hi = n - 1
        while t <= hi:
            v = col[t]
            while dq_max and col[dq_max[-1]] <= v:
                dq_max.pop()
            dq_max.append(t)
            while dq_min and col[dq_min[-1]] >= v:
                dq_min.pop()
            dq_min.append(t)
            t += 1
        lo = i - w
        while dq_max[0] < lo:
            dq_max.popleft()
        while dq_min[0] < lo:
            dq_min.popleft()
        maxs[i] = col[dq_max[0]]
        mins[i] = col[dq_min[0]]
    return mins, maxs


def build_envelope(q, window: int) -> Envelope:
    """Build the windowed max/min envelope of a series."""
    qa = as_series(q)
    if window < 0:
        raise InvalidInputError("window must be >= 0")
    n, dims = qa.shape
    w = min(int(window), n - 1)
    upper = np.empty_like(qa)
    lower = np.empty_like(qa)
    for p in range(dims):
        col = qa[:, p].tolist()
        mins, maxs = _sliding_minmax(col, n, w)
        lower[:, p] = mins
        upper[:, p] = maxs
    return Envelope(upper=upper, lower=lower, window=w)


def envelope_deviations(ca: np.ndarray, env: Envelope) -> np.ndarray:
    """Per-point Euclidean distance from candidate points to the envelope box.

    `ca` is one (n, D) series or a (C, n, D) stack of them."""
    dev_hi = np.maximum(ca - env.upper, 0.0)
    dev_lo = np.maximum(env.lower - ca, 0.0)
    return np.sqrt(sum_last(dev_hi * dev_hi + dev_lo * dev_lo))


def lb_mv(c, env: Envelope, abandon_above: float | None = None) -> BoundResult:
    """Envelope lower bound of the banded DTW distance.

    Sums, over candidate indices, the Euclidean distance from each candidate
    point to the envelope box at that index (zero for points inside the box).
    """
    ca = as_series(c)
    if ca.shape != env.upper.shape:
        raise InvalidInputError(f"shape mismatch: {ca.shape} vs {env.upper.shape}")
    return sum_with_abandon(envelope_deviations(ca, env), abandon_above)


def lb_ad(q, c, window: int, abandon_above: float | None = None) -> BoundResult:
    """All-distances lower bound: for every candidate point, the distance to
    the nearest query point inside its window, summed over candidate indices.

    Dominates lb_mv (a box distance never exceeds the distance to a point
    inside the box) and every bound in this package that relaxes point
    distances, at the cost of O(n * W * D) work per pair.
    """
    qa = as_series(q)
    ca = as_series(c)
    if qa.shape != ca.shape:
        raise InvalidInputError(f"shape mismatch: {qa.shape} vs {ca.shape}")
    w = min(int(window), qa.shape[0] - 1)
    return sum_with_abandon(cost_band(ca, qa, w).min(axis=1), abandon_above)
