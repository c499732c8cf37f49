"""Independent reference implementations the tests check the package against.

Everything here is written for clarity, not speed: plain loops, no shared
code with the package beyond the point-distance definition (Euclidean,
non-squared), which is the contract itself.  Three exceptions compare bit
for bit and so reuse package code: the reference cascade runs the package's
per-point bound kernels one candidate at a time, in scan order, to check the
batched search counter for counter; reference_dtw and reference_lb_ti
measure their point distances with the package's point_costs, since a
distance whose dimensions were added in another order could land above the
DTW by an ulp.  reference_dtw builds its own cost table and runs its own DP,
so it checks the package's one DP recurrence, dtw_rows, independently.

The reference cascade owns the scan's one early-exit rule, the prune rule
sum_with_abandon: a candidate's bound terms are added left to right and it
is pruned at the first prefix above d_best.  The package's bounds return
plain totals; its search applies the rule in batch (search._prune_sums),
which must agree with it on every candidate.  Every compared DTW runs to
the end, in the reference cascade as in the package.

reference_lb_ad_terms and reference_lb_pc_terms are the batched lb_ad and
lb_pc formulas written dimension last, over a (C, n, D) stack, with their
own left-to-right dimension sum; the package's dimension-first kernels must
equal them bit for bit.

reference_lb_ti (every triangle-bound variant, with an interval trace) and
quantize_cluster (one window's grid boxes) are the general forms of what the
package deploys; the package's lb_ti and build_box_sets must equal them bit
for bit on the deployed configuration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from mvdtw import (
    BoundResult,
    InvalidInputError,
    Method,
    NnOutcome,
    build_box_sets,
    build_envelope,
    neighbor_steps,
)
from mvdtw.core import as_series
from mvdtw.dtw import point_costs
from mvdtw.lb_mv import lb_ad_terms
from mvdtw.lb_pc import lb_pc_terms
from mvdtw.lb_ti import lb_ti_terms
from mvdtw.search import _advanced_method, _trigger


def point_dist(a, b) -> float:
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def cost_matrix(q, c) -> list[list[float]]:
    n = len(q)
    return [[point_dist(q[i], c[j]) for j in range(n)] for i in range(n)]


def count_band_paths(n: int, window: int) -> int:
    """Number of right/up/diagonal paths from (0,0) to (n-1,n-1) inside the band."""
    w = min(window, n - 1)
    counts = [[0] * n for _ in range(n)]
    counts[0][0] = 1
    for i in range(n):
        for j in range(n):
            if i == 0 and j == 0 or abs(i - j) > w:
                continue
            total = 0
            if i > 0 and abs(i - 1 - j) <= w:
                total += counts[i - 1][j]
            if j > 0 and abs(i - j + 1) <= w:
                total += counts[i][j - 1]
            if i > 0 and j > 0:
                total += counts[i - 1][j - 1]
            counts[i][j] = total
    return counts[n - 1][n - 1]


def brute_dtw(q, c, window: int) -> float:
    """Banded DTW by explicit enumeration of every warping path."""
    n = len(q)
    w = min(window, n - 1)
    cost = cost_matrix(q, c)
    best = math.inf
    stack = [(0, 0, cost[0][0])]
    while stack:
        i, j, acc = stack.pop()
        if i == n - 1 and j == n - 1:
            if acc < best:
                best = acc
            continue
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            ii, jj = i + di, j + dj
            if ii < n and jj < n and abs(ii - jj) <= w:
                stack.append((ii, jj, acc + cost[ii][jj]))
    return best


def naive_envelope(q, window: int):
    """Windowed max/min by direct scanning."""
    qa = np.asarray(q, dtype=float)
    n, dims = qa.shape
    upper = np.empty_like(qa)
    lower = np.empty_like(qa)
    for i in range(n):
        lo = max(0, i - window)
        hi = min(n - 1, i + window)
        upper[i] = qa[lo : hi + 1].max(axis=0)
        lower[i] = qa[lo : hi + 1].min(axis=0)
    return lower, upper


def naive_lb_mv(q, c, window: int) -> float:
    lower, upper = naive_envelope(q, window)
    ca = np.asarray(c, dtype=float)
    total = 0.0
    for i in range(len(ca)):
        s = 0.0
        for p in range(ca.shape[1]):
            if ca[i, p] > upper[i, p]:
                s += (ca[i, p] - upper[i, p]) ** 2
            elif ca[i, p] < lower[i, p]:
                s += (lower[i, p] - ca[i, p]) ** 2
        total += math.sqrt(s)
    return total


def naive_lb_ad(q, c, window: int) -> float:
    """For every candidate point, the distance to the nearest in-window query
    point, summed over candidate indices."""
    n = len(q)
    w = min(window, n - 1)
    total = 0.0
    for i in range(n):
        lo = max(0, i - w)
        hi = min(n - 1, i + w)
        total += min(point_dist(c[i], q[j]) for j in range(lo, hi + 1))
    return total


def dims_last_sums(x: np.ndarray) -> np.ndarray:
    """Totals over the last axis of (..., D) points, added left to right."""
    total = x[..., 0]
    for p in range(1, x.shape[-1]):
        total = total + x[..., p]
    return total


def reference_lb_ad_terms(q, stack, w: int) -> np.ndarray:
    """(C, n) lb_ad terms of a (C, n, D) stack of candidates, dimension last:
    the minimum of each candidate point's (2w + 1)-wide cost band against
    the query, +inf where the band leaves the series."""
    n = len(q)
    j = np.arange(n)[:, None] + np.arange(-w, w + 1)
    diff = stack[:, :, None, :] - q[np.clip(j, 0, n - 1)]
    band = np.sqrt(dims_last_sums(diff * diff))
    band[:, (j < 0) | (j >= n)] = math.inf
    return band.min(axis=-1)


def reference_lb_pc_terms(stack, grouping) -> np.ndarray:
    """(C, n) lb_pc terms of a (C, n, D) stack of candidates, dimension last:
    the squared distance from each point to every box slot of its expanded
    window as one (C, n, K, D) array, its least slot, then the root.  Each
    dimension adds both one-sided squared deviations, where lb_pc_terms
    squares the larger deviation alone."""
    lo, hi = (boxes.transpose(1, 2, 0) for boxes in (grouping.lo, grouping.hi))
    x = stack[:, :, None, :]
    dev_hi = np.maximum(x - hi, 0.0)
    dev_lo = np.maximum(lo - x, 0.0)
    return np.sqrt(dims_last_sums(dev_hi * dev_hi + dev_lo * dev_lo).min(axis=-1))


def naive_box_dist(point, lo, hi) -> float:
    s = 0.0
    for p in range(len(point)):
        if point[p] < lo[p]:
            s += (lo[p] - point[p]) ** 2
        elif point[p] > hi[p]:
            s += (point[p] - hi[p]) ** 2
    return math.sqrt(s)


def sum_with_abandon(per_point: np.ndarray, abandon_above: float) -> float:
    """Sum nonnegative per-point contributions left to right, stopping at the
    first prefix that exceeds `abandon_above`; the scan prunes a candidate
    when the result reaches its d_best.

    Every bound sums in this order, so per-point dominance between two
    bounds carries over to their sums exactly.  Like a left-to-right scan,
    it abandons at the first prefix above the threshold even when a later
    term is NaN (inf - inf from overflowed distances).
    """
    sums = per_point.cumsum()
    total = float(sums[-1])
    if total <= abandon_above:
        return total
    over = np.flatnonzero(sums > abandon_above)
    return float(sums[over[0]]) if len(over) else total


def band_cells(n: int, window: int) -> int:
    """DP cells of an (n, window) band, counted row by row."""
    w = min(window, n - 1)
    return sum(min(n - 1, i + w) - max(0, i - w) + 1 for i in range(n))


def reference_nn_search(query, candidates, params, advanced=None, dim_range=None) -> NnOutcome:
    """The search cascade run one candidate at a time, in scan order: every
    compared DTW is a full reference_dtw call, charged its whole band, and
    every bound's per-point terms come from the package kernel on that one
    candidate, as (D, n, 1) planes (what the per-pair bounds wrap), pruned
    by sum_with_abandon at d_best."""
    t_start = time.perf_counter()
    qa = as_series(query)
    cas = [as_series(c) for c in candidates]
    if not cas:
        raise InvalidInputError("candidate list is empty")
    n, dims = qa.shape
    method = params.method
    adv = _advanced_method(params, advanced)
    w = params.effective_window(n)

    out = NnOutcome(best_index=0, best_distance=0.0)

    # Per-query preparation, all charged to lb_time as bound overhead.
    env = None
    qsteps = None
    boxes = None
    t0 = time.perf_counter()
    if method != Method.NONE:
        env = build_envelope(qa, w)
        out.work += n * dims
    if adv == Method.LB_TI:
        qsteps = neighbor_steps(qa)
        out.work += n * dims
    elif adv == Method.LB_PC:
        boxes = build_box_sets(
            qa, w, params.group_width, params.quant_levels, params.max_boxes,
            params.min_cell_frac, dim_range,
        )
        out.work += n * dims * (1 + params.quant_levels)
    out.lb_time += time.perf_counter() - t0

    # Deterministic per-evaluation work model (point-dimension touches).
    work_mv = n * dims
    work_ti = n * (4.0 + (2.0 + w / params.refresh_period) * dims)
    work_pc = n * params.max_boxes * dims
    work_ad = n * (2.0 * w + 1.0) * dims
    work_dtw = band_cells(n, w) * dims

    t0 = time.perf_counter()
    d_best = reference_dtw(qa, cas[0], w)
    out.dtw_time += time.perf_counter() - t0
    out.dtw_computed += 1
    out.work += work_dtw
    best_idx = 0

    for k in range(1, len(cas)):
        ca = cas[k]
        planes = ca.T[..., None]
        if method != Method.NONE:
            t0 = time.perf_counter()
            b1 = sum_with_abandon(lb_pc_terms(planes, env)[:, 0], d_best)
            out.lb_time += time.perf_counter() - t0
            out.lb_mv_evals += 1
            out.work += work_mv
            if b1 >= d_best:
                out.dtw_skipped += 1
                continue
            if adv is not None and b1 > _trigger(params, adv) * d_best:
                t0 = time.perf_counter()
                if adv == Method.LB_TI:
                    terms = lb_ti_terms(qa, planes, w, params.refresh_period, qsteps)
                    out.work += work_ti
                elif adv == Method.LB_PC:
                    terms = lb_pc_terms(planes, boxes)
                    out.work += work_pc
                else:
                    terms = lb_ad_terms(qa, planes, w)
                    out.work += work_ad
                b2 = sum_with_abandon(terms[:, 0], d_best)
                out.lb_time += time.perf_counter() - t0
                out.advanced_lb_evals += 1
                if b2 >= d_best:
                    out.dtw_skipped += 1
                    continue
        t0 = time.perf_counter()
        distance = reference_dtw(qa, ca, w)
        out.dtw_time += time.perf_counter() - t0
        out.dtw_computed += 1
        out.work += work_dtw
        if distance < d_best:
            d_best = distance
            best_idx = k

    out.best_index = best_idx
    out.best_distance = d_best
    out.total_time = time.perf_counter() - t_start
    return out


def reference_dtw(q, c, window: int) -> float:
    """Banded DTW distance by a plain double loop over the DP table.

    The point costs of every (i, j) pair are measured by the package's
    point_costs, so that cell costs (and therefore every DP value) are
    bit-identical to dtw_rows'."""
    qa = np.asarray(q, dtype=np.float64)
    ca = np.asarray(c, dtype=np.float64)
    n = len(qa)
    w = min(window, n - 1)
    cost = point_costs(qa.T[:, :, None], ca.T[:, None, :]).tolist()
    table = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        for j in range(max(0, i - w), min(n - 1, i + w) + 1):
            prior = 0.0 if i == j == 0 else min(
                table[i - 1][j] if i > 0 else math.inf,
                table[i - 1][j - 1] if i > 0 and j > 0 else math.inf,
                table[i][j - 1] if j > 0 else math.inf,
            )
            table[i][j] = cost[i][j] + prior
    return table[n - 1][n - 1]


# --- the triangle bound in all its variants -------------------------------

_PROP_SLACK = 2.0 ** -46


class TiVariant(str, Enum):
    """Variant of the triangle-inequality lower bound."""

    BASIC = "basic"
    TOP = "top"
    TIP = "tip"
    TIP_TOP = "tip_top"


def ti_advance(lo: float, up: float, step: float) -> tuple[float, float]:
    """Advance one [L, U] interval across a query step of length `step`."""
    if step == 0.0:
        return lo, up
    base = max(lo - step, step - up, 0.0)
    t = up + step
    pad = t * _PROP_SLACK
    return max(base - pad, 0.0), t + pad


def ti_extend_top(lo: float, up: float, step: float) -> tuple[float, float]:
    """Derive the interval for the window's new top slot from its neighbor
    slot across a candidate step of length `step`.  Same recurrence as
    ti_advance; kept separate because it walks the candidate series."""
    return ti_advance(lo, up, step)


def reference_lb_ti(
    q,
    c,
    window: int,
    variant: TiVariant = TiVariant.TIP_TOP,
    refresh_period: int = 5,
    neighbor=None,
    trace: list | None = None,
) -> BoundResult:
    """Triangle-inequality lower bound of the banded DTW distance.

    variant
        BASIC    pure propagation, the top slot extended along the candidate
        TOP      true distance for each row's newest window slot
        TIP      true distances for the whole window every refresh_period rows
        TIP_TOP  both (the variant the package deploys as lb_ti)
    refresh_period
        rows between re-anchoring in TIP / TIP_TOP (>= 1); with the value n
        TIP degenerates to BASIC
    neighbor
        precomputed adjacent-point distances of `q` (query_steps)
    trace
        when a list is passed, (i, lo, hi, L, U) snapshots of the maintained
        intervals are appended for every row
    """
    qa = as_series(q)
    ca = as_series(c)
    if qa.shape != ca.shape:
        raise InvalidInputError(f"shape mismatch: {qa.shape} vs {ca.shape}")
    variant = TiVariant(variant)
    if refresh_period < 1:
        raise InvalidInputError("refresh_period must be >= 1")
    if window < 0:
        raise InvalidInputError("window must be >= 0")
    n = qa.shape[0]
    w = min(int(window), n - 1)

    qsteps = neighbor_steps(qa) if neighbor is None else neighbor.query_steps
    refreshing = variant in (TiVariant.TIP, TiVariant.TIP_TOP)
    true_top = variant in (TiVariant.TOP, TiVariant.TIP_TOP)
    csteps = None if true_top else neighbor_steps(ca)

    lo_arr = np.empty(n)  # interval floors, indexed by candidate column
    up_arr = np.empty(n)
    colmin = np.full(n, math.inf)

    hi = min(w, n - 1)
    d0 = point_costs(qa[0, :, None], ca[: hi + 1].T)
    lo_arr[: hi + 1] = d0
    up_arr[: hi + 1] = d0
    colmin[: hi + 1] = d0
    if trace is not None:
        trace.append((0, 0, hi, lo_arr[: hi + 1].copy(), up_arr[: hi + 1].copy()))

    prev_lo = 0
    prev_hi = hi
    for i in range(1, n):
        lo = max(0, i - w)
        hi = min(n - 1, i + w)
        if refreshing and i % refresh_period == 0:
            d = point_costs(qa[i, :, None], ca[lo : hi + 1].T)
            lo_arr[lo : hi + 1] = d
            up_arr[lo : hi + 1] = d
        else:
            s = float(qsteps[i - 1])
            if s > 0.0:
                sl_lo = lo_arr[prev_lo : prev_hi + 1]
                sl_up = up_arr[prev_lo : prev_hi + 1]
                base = np.maximum(np.maximum(sl_lo - s, s - sl_up), 0.0)
                t = sl_up + s
                pad = t * _PROP_SLACK
                np.maximum(base - pad, 0.0, out=sl_lo)
                sl_up[:] = t + pad
            if hi > prev_hi:  # the window gained its top slot, column hi
                if true_top:
                    lo_arr[hi] = up_arr[hi] = float(point_costs(qa[i], ca[hi]))
                else:
                    lo_arr[hi], up_arr[hi] = ti_extend_top(
                        float(lo_arr[hi - 1]), float(up_arr[hi - 1]), float(csteps[hi - 1])
                    )
        np.minimum(colmin[lo : hi + 1], lo_arr[lo : hi + 1], out=colmin[lo : hi + 1])
        if trace is not None:
            trace.append((i, lo, hi, lo_arr[lo : hi + 1].copy(), up_arr[lo : hi + 1].copy()))
        prev_lo, prev_hi = lo, hi

    running = 0.0
    for v in colmin:
        running += float(v)
    return BoundResult(running)


# --- grid boxes of one window ---------------------------------------------


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Bounding boxes of one window's points: stacked (num_boxes, D) arrays
    whose union contains every point the set was built from."""

    los: np.ndarray
    his: np.ndarray

    @property
    def num_boxes(self) -> int:
        return self.los.shape[0]


def quantize_cluster(points, levels: int, max_boxes: int, min_cell_frac: float,
                     dim_range=None) -> BoxSet:
    """Cluster points by grid quantization into at most `max_boxes` tight boxes.

    Each dimension's observed range is split into `levels` equal segments,
    except dimensions whose range falls below min_cell_frac * dim_range (or is
    degenerate), which stay whole.  Every non-empty cell contributes the tight
    bounding box of its own points.  If more than `max_boxes` cells are
    non-empty, the cells are ordered lexicographically by cell index and all
    cells from position max_boxes-1 onward merge into a single union box.
    `dim_range` defaults to the points' own range.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.size == 0:
        raise InvalidInputError("cannot cluster an empty point list")
    if levels < 1 or max_boxes < 1:
        raise InvalidInputError("levels and max_boxes must be >= 1")
    mn = pts.min(axis=0)
    mx = pts.max(axis=0)
    rng = mx - mn
    ref = rng if dim_range is None else np.asarray(dim_range, dtype=np.float64)
    split = (rng > 0.0) & (rng >= min_cell_frac * ref)
    if levels == 1 or not split.any():
        return BoxSet(mn[None, :].copy(), mx[None, :].copy())

    lev = np.where(split, levels, 1)
    seg = np.where(split, rng / lev, 1.0)
    scaled = (pts - mn) / seg
    scaled[:, ~split] = 0.0  # unsplit dims: everything in cell 0
    idx = np.clip(scaled.astype(np.int64), 0, lev - 1)
    # Cells in lexicographic order of their index tuples, dimension 0 most
    # significant; the sort is stable, so each cell keeps its points' order.
    order = np.lexsort(idx.T[::-1])
    sorted_idx = idx[order]
    starts = np.flatnonzero(np.concatenate(([True], (sorted_idx[1:] != sorted_idx[:-1]).any(axis=1))))
    los = np.minimum.reduceat(pts[order], starts, axis=0)
    his = np.maximum.reduceat(pts[order], starts, axis=0)
    if los.shape[0] > max_boxes:
        keep = max_boxes - 1
        tail_lo = los[keep:].min(axis=0)
        tail_hi = his[keep:].max(axis=0)
        los = np.vstack([los[:keep], tail_lo[None, :]])
        his = np.vstack([his[:keep], tail_hi[None, :]])
    return BoxSet(los, his)


def expanded_span(g: int, n: int, window: int, group_width: int) -> tuple[int, int]:
    """Inclusive query-index range [a, b] of expanded window g."""
    w = min(window, n - 1)
    return max(0, g * group_width - w), min(n - 1, g * group_width + w + group_width - 1)


def box_set_for_index(grouping, i: int) -> BoxSet:
    """The boxes build_box_sets assigns to query index i's window: its
    finite slots, since unused slots are padded with +inf/-inf."""
    k = int(np.isfinite(grouping.lo[0, i]).sum())
    return BoxSet(grouping.lo[:, i, :k].T, grouping.hi[:, i, :k].T)
