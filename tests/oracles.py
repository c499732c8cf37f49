"""Independent reference implementations the tests check the package against.

Everything here is written for clarity, not speed: plain loops, no shared
code with the package beyond the point-distance definition (Euclidean,
non-squared), which is the contract itself.  Two exceptions compare bit
for bit and so reuse package code: the reference cascade runs the package's
single-pair bounds and DTW one candidate at a time, in scan order, to check
the batched search counter for counter; banded_row_minima runs the DP over
the package's own cost band.
"""

from __future__ import annotations

import math
import time

import numpy as np

from mvdtw import (
    InvalidInputError,
    Method,
    NeighborDistances,
    NnOutcome,
    TiVariant,
    build_box_sets,
    build_envelope,
    dtw_banded,
    lb_ad,
    lb_mv,
    lb_pc,
    lb_ti,
    neighbor_steps,
)
from mvdtw.core import as_series
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


def naive_box_dist(point, lo, hi) -> float:
    s = 0.0
    for p in range(len(point)):
        if point[p] < lo[p]:
            s += (lo[p] - point[p]) ** 2
        elif point[p] > hi[p]:
            s += (point[p] - hi[p]) ** 2
    return math.sqrt(s)


def reference_nn_search(query, candidates, params, advanced=None, dim_range=None) -> NnOutcome:
    """The search cascade run one candidate at a time: every bound and every
    DTW is a single-pair call, in scan order."""
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
    nd = None
    boxes = None
    t0 = time.perf_counter()
    if method != Method.NONE:
        env = build_envelope(qa, w)
        out.work += n * dims
    if adv == Method.LB_TI:
        nd = NeighborDistances(query_steps=neighbor_steps(qa))
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

    t0 = time.perf_counter()
    first = dtw_banded(qa, cas[0], w)
    out.dtw_time += time.perf_counter() - t0
    out.dtw_computed += 1
    out.work += first.cells * dims
    d_best = first.distance
    best_idx = 0

    abandon = None if method == Method.NONE else True
    for k in range(1, len(cas)):
        ca = cas[k]
        if method != Method.NONE:
            t0 = time.perf_counter()
            b1 = lb_mv(ca, env, abandon_above=d_best)
            out.lb_time += time.perf_counter() - t0
            out.lb_mv_evals += 1
            out.work += work_mv
            if b1.value >= d_best:
                out.dtw_skipped += 1
                continue
            if adv is not None and b1.value > _trigger(params, adv) * d_best:
                t0 = time.perf_counter()
                if adv == Method.LB_TI:
                    b2 = lb_ti(
                        qa, ca, w, TiVariant.TIP_TOP, params.refresh_period,
                        neighbor=nd, abandon_above=d_best,
                    )
                    out.work += work_ti
                elif adv == Method.LB_PC:
                    b2 = lb_pc(ca, boxes, abandon_above=d_best)
                    out.work += work_pc
                else:
                    b2 = lb_ad(qa, ca, w, abandon_above=d_best)
                    out.work += work_ad
                out.lb_time += time.perf_counter() - t0
                out.advanced_lb_evals += 1
                if b2.value >= d_best:
                    out.dtw_skipped += 1
                    continue
        t0 = time.perf_counter()
        res = dtw_banded(qa, ca, w, abandon_above=d_best if abandon else None)
        out.dtw_time += time.perf_counter() - t0
        out.dtw_computed += 1
        out.work += res.cells * dims
        if res.abandoned:
            out.abandon_count += 1
        elif res.distance < d_best:
            d_best = res.distance
            best_idx = k

    out.best_index = best_idx
    out.best_distance = d_best
    out.total_time = time.perf_counter() - t_start
    return out


def banded_row_minima(q, c, window: int) -> tuple[list[float], float]:
    """Minimum of every row of the banded DTW table, and the final distance.

    A plain double loop over the package's own cost band, so that cell costs
    (and therefore every DP value) are bit-identical to dtw_banded's."""
    from mvdtw.dtw import cost_band

    qa = np.asarray(q, dtype=np.float64)
    ca = np.asarray(c, dtype=np.float64)
    n = len(qa)
    w = min(window, n - 1)
    band = cost_band(qa, ca, w).tolist()
    table = [[math.inf] * n for _ in range(n)]
    minima = []
    for i in range(n):
        for j in range(max(0, i - w), min(n - 1, i + w) + 1):
            prior = 0.0 if i == j == 0 else min(
                table[i - 1][j] if i > 0 else math.inf,
                table[i - 1][j - 1] if i > 0 and j > 0 else math.inf,
                table[i][j - 1] if j > 0 else math.inf,
            )
            table[i][j] = band[i][j - i + w] + prior
        minima.append(min(table[i]))
    return minima, table[n - 1][n - 1]
