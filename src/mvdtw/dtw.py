"""Sakoe-Chiba banded dependent multivariate DTW with early abandoning."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import as_pair, sum_last

_INF = float("inf")


@dataclass(frozen=True)
class DtwResult:
    """Banded DTW outcome.

    If `abandoned` is false, `distance` is the exact band-constrained DTW
    distance.  If true, the computation either stopped at a row whose entire
    frontier exceeded the abandon threshold (then `distance` is that row's
    minimum, a lower bound of the true distance) or ran to completion with a
    final value above the threshold.  Either way `distance > abandon_above`.

    `cells` counts evaluated DP cells, the work unit used for deterministic
    cost accounting.
    """

    distance: float
    abandoned: bool = False
    cells: int = 0


def point_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between broadcast rows of `a` and `b`.  DTW cells,
    lb_ad and the triangle bound's steps and true distances all go through
    it, so kernels and bounds agree bit for bit (box distances: box_costs)."""
    diff = a - b
    return np.sqrt(sum_last(diff * diff))


def box_costs(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from broadcast rows of `x` to the
    axis-aligned boxes [lo, hi] (zero inside a box).  lb_mv and lb_pc both
    measure through it, so their per-point floors compare exactly."""
    dev_hi = np.maximum(x - hi, 0.0)
    dev_lo = np.maximum(lo - x, 0.0)
    return sum_last(dev_hi * dev_hi + dev_lo * dev_lo)


def cost_band(qa: np.ndarray, ca: np.ndarray, w: int, rows: slice = slice(None)) -> np.ndarray:
    """Local cost band: entry (i, k) is d(q_i, c_{i-w+k}) for k in [0, 2w],
    +inf where the column index falls outside [0, n-1], for the rows i in
    `rows` (all by default).  Either argument may be a (C, n, D) stack,
    which gives a (C, rows, 2w + 1) band."""
    n = qa.shape[-2]
    j = np.arange(n)[rows, None] + np.arange(-w, w + 1)[None, :]
    band = point_costs(qa[..., rows, None, :], ca[..., np.clip(j, 0, n - 1), :])
    np.copyto(band, _INF, where=(j < 0) | (j >= n))
    return band


def row_cells(n: int, w: int) -> np.ndarray:
    """Cumulative DP cell count after each row of an (n, w) band."""
    i = np.arange(n)
    return np.cumsum(np.minimum(i + w, n - 1) - np.maximum(i - w, 0) + 1)


def dtw_banded(q, c, window: int, abandon_above: float | None = None) -> DtwResult:
    """Band-constrained DTW distance between two equal-shape series.

    The warping path runs from cell (0, 0) to (n-1, n-1) moving right, up, or
    diagonally, restricted to |i - j| <= min(window, n-1).  Cell costs are
    Euclidean point distances and the distance is their plain sum along the
    cheapest path.

    With `abandon_above` set, the DP stops as soon as every entry of a row
    frontier exceeds it (any full path must pass through every row).
    """
    qa, ca, w = as_pair(q, c, window)
    n = qa.shape[0]
    width = 2 * w + 1
    band = cost_band(qa, ca, w).tolist()
    threshold = _INF if abandon_above is None else float(abandon_above)

    inf_row = [_INF] * width
    prev = inf_row[:]
    cur = inf_row[:]
    cells = 0
    for i in range(n):
        row = band[i]
        lo = 0 if i < w else i - w
        hi = n - 1 if i + w >= n else i + w
        cur[:] = inf_row
        k = lo - i + w
        row_min = _INF
        for j in range(lo, hi + 1):
            if i == 0 and j == 0:
                v = row[k]
            else:
                best = _INF
                if i > 0:
                    if k + 1 < width:
                        best = prev[k + 1]  # (i-1, j)
                    if j > 0 and prev[k] < best:
                        best = prev[k]  # (i-1, j-1)
                if k > 0 and cur[k - 1] < best:
                    best = cur[k - 1]  # (i, j-1)
                v = row[k] + best
            cur[k] = v
            if v < row_min:
                row_min = v
            k += 1
        cells += hi - lo + 1
        if row_min > threshold:
            return DtwResult(row_min, True, cells)
        prev, cur = cur, prev

    final = prev[w]  # column j = n-1 sits at offset w in the last row
    return DtwResult(final, final > threshold, cells)


@lru_cache(maxsize=32)
def _sweep_plan(n: int, w: int) -> tuple:
    """Slices for each anti-diagonal s = i + j of an (n, w) band.

    Anti-diagonal s holds the cells with offset d = i - j in [-w, w] and the
    parity of s; slot d + w + 1 of a (count, 2w + 3) buffer stores cell d,
    with one +inf pad slot at each end.  Per step: query rows, candidate
    columns (j falls as d rises, so walked backwards), the cells' slots, the
    slots of their (i-1, j) and (i, j-1) neighbours on the previous
    anti-diagonal, and the row this step completes (-1 if none).
    """
    last = 2 * (n - 1)
    row_done = {i + min(n - 1, i + w): i for i in range(n)}
    plan = []
    for s in range(last + 1):
        d_lo = max(-w, -s, s - last)
        d_hi = min(w, s, last - s)
        d_lo += (d_lo + s) & 1
        d_hi -= (d_hi + s) & 1
        done = row_done.get(s, -1)
        if d_lo > d_hi:  # window 0: odd anti-diagonals are empty
            plan.append((None, None, None, None, None, done))
            continue
        i_lo, i_hi = (s + d_lo) // 2, (s + d_hi) // 2
        j_hi, j_lo = s - i_lo, s - i_hi
        lo, hi = d_lo + w + 1, d_hi + w + 2
        plan.append((
            slice(i_lo, i_hi + 1), slice(j_hi, j_lo - 1 if j_lo > 0 else None, -1),
            slice(lo, hi, 2), slice(lo - 1, hi - 1, 2), slice(lo + 1, hi + 1, 2), done,
        ))
    return tuple(plan)


def dtw_rows(qa: np.ndarray, cas: np.ndarray, w: int, drop_above: np.ndarray | None = None):
    """Banded DTW of one query against a stack of candidates, all at once.

    `qa` is a validated (n, D) series, `cas` a validated (C, n, D) stack and
    `w` the effective window (0 <= w <= n-1).  Returns (row_min, final):
    row_min[c, i] is the minimum of DP row i for candidate c and final[c]
    its DTW distance, both bit-identical to what dtw_banded computes for the
    pair.  Reading rows in order until the first minimum above a threshold
    replays dtw_banded's abandoning exactly.

    The DP runs over anti-diagonals i + j = s, whose cells depend only on the
    two previous anti-diagonals, so each step is a few array operations over
    every candidate.  With `drop_above` (one threshold per candidate), a
    candidate leaves the sweep after the first completed row whose minimum
    exceeds its threshold.  Its rows up to that one are exact; later rows
    hold partial minima or +inf, and its final stays +inf.
    """
    count, n, _ = cas.shape
    row_min = np.full((count, n), _INF)
    final = np.full(count, _INF)
    act = np.arange(count)
    cs = cas
    rows = row_min.copy()
    thr = None if drop_above is None else np.asarray(drop_above, dtype=np.float64)
    # Buffers for anti-diagonals s-2, s-1 and s.  Before s = 0, a virtual
    # cell (-1, -1) of value 0 makes cell (0, 0) cost exactly itself.
    two_back, one_back, cur = np.full((3, count, 2 * w + 3), _INF)
    two_back[:, w + 1] = 0.0
    for q_rows, c_cols, here, up, left, done in _sweep_plan(n, w):
        cur.fill(_INF)
        if q_rows is not None:
            cost = point_costs(qa[q_rows], cs[:, c_cols])
            best = np.minimum(one_back[:, up], one_back[:, left])
            np.minimum(best, two_back[:, here], out=best)
            cells = cur[:, here]
            np.add(cost, best, out=cells)
            seg = rows[:, q_rows]
            np.minimum(seg, cells, out=seg)
        two_back, one_back, cur = one_back, cur, two_back
        if thr is not None and done >= 0:
            keep = rows[:, done] <= thr
            if not keep.all():
                gone = ~keep
                row_min[act[gone]] = rows[gone]
                act, cs, rows, thr = act[keep], cs[keep], rows[keep], thr[keep]
                two_back, one_back, cur = two_back[keep], one_back[keep], cur[keep]
                if not len(act):
                    return row_min, final
    row_min[act] = rows
    final[act] = one_back[:, w + 1]  # cell (n-1, n-1): s = 2(n-1), d = 0
    return row_min, final
