"""Bounded DTW nearest-neighbor search with selective bound deployment.

For every query, candidates are scanned in their given order while the best
exact DTW distance so far (d_best) shrinks.  Each candidate first faces the
cheap envelope bound; if that fails to prune and the bound lands in the
triggering band (trigger < bound/d_best < 1), the configured advanced bound
gets a chance; only then is the exact banded DTW computed, to its last row.
Bounds never change answers: a candidate is skipped only when a lower bound
of its DTW distance already reaches d_best, and d_best only improves on exact
distances, so every method returns the nearest neighbor the plain linear scan
finds.

The scan runs as one batch pass in two stages (see nn_search): `_scan`
computes what only the query, the candidates and the window decide, the
envelope bounds, the DTW sweep and the d_best each candidate meets; `_finish`
the advanced bound and the counters of one SearchParams.

Method and parameter selection on a data sample ranks configurations by a
deterministic work model (bound point-touches and a full band of DP cells
per compared DTW, dimension weighted) rather than wall time, so repeated runs
with one seed pick the same configuration and produce bit-identical counters;
wall times are still measured and reported.  Selection finishes one scan per
sample query under every configuration it compares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import (
    BLOCK_FLOATS, InvalidInputError, Method, SearchParams, as_array, as_int, as_series, sequential_sums,
)
from .dtw import dtw_rows, point_costs
from .lb_mv import build_envelope, lb_ad_terms
from .lb_pc import as_dim_range, build_box_sets, lb_pc_terms
from .lb_ti import lb_ti_terms, neighbor_steps

TUNE_CANDIDATE_SAMPLE = 23
TUNE_QUERY_SAMPLE = 8


@dataclass
class NnOutcome:
    """Result and instrumentation of one query's nearest-neighbor scan.

    `abandon_count` is always 0: the search computes every DTW it compares
    to the end, and the field stays only because perfbench/run.py reads it.
    `dtw_swept` counts the candidates the batched sweep computed (the
    compared ones and more).
    `work` is the deterministic work-model total used for tuning decisions.
    Timers are seconds; lb_time + dtw_time <= total_time.
    """

    best_index: int
    best_distance: float
    dtw_computed: int = 0
    dtw_skipped: int = 0
    lb_mv_evals: int = 0
    advanced_lb_evals: int = 0
    abandon_count: int = 0
    lb_time: float = 0.0
    dtw_time: float = 0.0
    total_time: float = 0.0
    work: float = 0.0
    dtw_swept: int = 0


def _advanced_method(params: SearchParams, advanced: Method | None) -> Method | None:
    """Resolve which bound runs at the cascade's second step, if any.
    `advanced` resolves TC_DTW and is rejected with any other method."""
    method = params.method
    if method == Method.TC_DTW:
        if advanced not in (Method.LB_TI, Method.LB_PC):
            raise InvalidInputError("TC_DTW must be resolved with tc_dtw_select first")
        return advanced
    if advanced is not None:
        raise InvalidInputError(f"advanced={advanced!r} applies only to method tc_dtw, "
                                f"not {method.value}")
    return None if method in (Method.NONE, Method.LB_MV) else method


def _trigger(params: SearchParams, advanced: Method) -> float:
    return params.trigger_pc if advanced == Method.LB_PC else params.trigger_ti


def _stack_candidates(candidates, shape: tuple) -> np.ndarray:
    """Validate the candidates once, as the C-contiguous (D, n, C) float64
    plane set every batched kernel reads (dimension, point, candidate).

    Every candidate must have the query's shape and finite values; anything
    else raises InvalidInputError naming the first offending candidate.
    Equal-shape arrays (1-D if univariate) convert in one call; the
    candidates are visited one by one only to name an offender.
    """
    try:
        stack = np.asarray(candidates, dtype=np.float64)
    except (TypeError, ValueError):
        stack = np.empty((0, 0, 0))
    if stack.ndim == 2 and shape[1] == 1:
        stack = stack[:, :, None]
    if stack.shape[1:] != shape or not len(stack) or not np.isfinite(stack).all():
        arrays = []
        for k, c in enumerate(candidates):
            try:
                a = as_array(c)
            except InvalidInputError as exc:
                raise InvalidInputError(f"candidate {k}: {exc}") from None
            if a.shape != shape:
                raise InvalidInputError(f"candidate {k} has shape {a.shape}, query has {shape}")
            arrays.append(a)
        if not arrays:
            raise InvalidInputError("candidate list is empty")
        stack = np.stack(arrays)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            k = int(np.argmin(finite))
            raise InvalidInputError(f"candidate {k} contains non-finite values")
    return np.ascontiguousarray(stack.transpose(2, 1, 0))


def _blockwise(fn, planes: np.ndarray, floats_each: int) -> np.ndarray:
    """fn over blocks of a plane set's candidates (its last axis), joined on
    that axis, where fn's temporaries take `floats_each` floats per
    candidate: a block holds as many as fit in BLOCK_FLOATS, at least one."""
    size = max(1, BLOCK_FLOATS // floats_each)
    return np.concatenate([fn(planes[..., b : b + size])
                           for b in range(0, planes.shape[-1], size)], axis=-1)


def _prune_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For (n, C) bound terms, the totals S[-1] and NaN-skipping peaks
    fmax(S) of each column's prefix sums S.  This is the search's one prune
    rule: the one-at-a-time scan adds a candidate's terms left to right and
    prunes it at the first prefix above d_best, or at a total >= d_best, so
    it prunes exactly when S[-1] >= d_best or fmax(S) > d_best, also when a
    later prefix is NaN (inf - inf from overflowed distances)."""
    sums = np.cumsum(terms, axis=0)
    return sums[-1], np.fmax.reduce(sums, axis=0)


@dataclass
class _Scan:
    """One query's first stage; triggers, quantization level and advanced
    bound leave it unchanged."""

    qa: np.ndarray
    ref: np.ndarray  # the cell-size floor's reference range (as_dim_range)
    planes: np.ndarray
    w: int
    lb_totals: np.ndarray | None  # envelope bounds; None when no bound runs
    swept: np.ndarray
    met: np.ndarray  # the d_best each candidate meets
    compared: np.ndarray  # not skipped on the envelope bound
    outcome: NnOutcome  # the answer, dtw_swept, lb_mv_evals and timers so far


def nn_search(
    query,
    candidates,
    params: SearchParams,
    advanced: Method | None = None,
    dim_range: np.ndarray | None = None,
) -> NnOutcome:
    """Find the candidate with the smallest banded DTW distance to `query`.

    Candidates are processed in the given order; d_best starts from an exact
    DTW against the first candidate.  `advanced` names the second-step bound
    when params.method is TC_DTW (fill it from tc_dtw_select).  `dim_range`
    is the dataset's per-dimension value range, used by the clustering bound's
    minimum cell size; it is checked for every method.

    The work runs as one batch pass: the envelope bound of every candidate
    at once, one batched DTW sweep (dtw_rows) to the last row of every
    candidate the scan might have to compare exactly (`dtw_swept` of them),
    and the advanced bound once over exactly the candidates the scan
    triggers it on.  Every skip, trigger and prune decision is then a
    comparison of these values with the d_best each candidate meets,
    so the answer and every counter equal the one-at-a-time scan's.  Raises
    RuntimeError if the sweep missed a candidate the scan compares, which
    only a diagonal-path cost below the DTW distance could cause.
    """
    t_start = time.perf_counter()
    qa = as_series(query)
    ref = as_dim_range(dim_range, qa)
    planes = _stack_candidates(candidates, qa.shape)
    adv = _advanced_method(params, advanced)
    bounded = params.method != Method.NONE
    out = _finish(_scan(qa, ref, planes, params.effective_window(len(qa)), bounded), params, adv)
    out.total_time = time.perf_counter() - t_start
    return out


def _scan(qa: np.ndarray, ref: np.ndarray, planes: np.ndarray, w: int, bounded: bool) -> _Scan:
    """nn_search's first stage, for its checked arguments; `bounded` is False
    for method `none`, which runs no bound."""
    n, dims = qa.shape
    count = planes.shape[-1]

    # The batched envelope bound (the one-box lb_pc), charged to lb_time.
    t0 = time.perf_counter()
    lb_totals = None
    if bounded:
        env = build_envelope(qa, w)
        lb_totals = _blockwise(lambda b: sequential_sums(lb_pc_terms(b, env)), planes, n * dims)
    lb_time = time.perf_counter() - t0

    # DTW sweep, charged to dtw_time.  d_best only falls, and once
    # candidate k has been scanned it is at most the cost of k's
    # diagonal path (an upper bound of k's DTW distance): the scan either
    # compared k exactly or skipped it on a lower bound at or above d_best.
    # So the d_best candidate k meets is at most the prefix minimum
    # `upper[k]` of the earlier diagonal costs, and k needs a DTW only if its
    # envelope bound is below that; candidate 0 always does, and so does
    # every candidate of `none`.  The sweep runs each of them to the end,
    # also those the scan will skip.
    t0 = time.perf_counter()
    upper = np.full(count, np.inf)
    swept = np.ones(count, dtype=bool)
    if bounded:
        diagonal = _blockwise(lambda b: sequential_sums(point_costs(qa.T[..., None], b)),
                              planes, n * dims)
        np.minimum.accumulate(diagonal[:-1], out=upper[1:])
        swept[1:] = lb_totals[1:] < upper[1:]
    need = np.flatnonzero(swept)
    final = dtw_rows(qa, planes if len(need) == count else planes[..., need], w)

    # `met[k]`, the d_best candidate k meets.  Every bound is sound, so it
    # is the smallest DTW distance among candidates 0..k-1: a skipped
    # candidate's distance is at least the d_best it met.  The sweep
    # computed those distances exactly, and a candidate it left out is at
    # least the d_best it meets (+inf here).  Candidate 0 meets +inf, and so
    # does every candidate of `none`.  Then the skips on the envelope bound.
    distances = np.full(count, np.inf)
    distances[need] = final
    met = np.full(count, np.inf)
    compared = np.ones(count, dtype=bool)
    if bounded:
        np.minimum.accumulate(distances[:-1], out=met[1:])
        compared[1:] = ~(lb_totals[1:] >= met[1:])
    best = int(np.argmin(distances))  # the first minimum, as the scan's strict <
    outcome = NnOutcome(best, float(distances[best]), lb_mv_evals=count - 1 if bounded else 0,
                        lb_time=lb_time, dtw_time=time.perf_counter() - t0, dtw_swept=len(need))
    return _Scan(qa, ref, planes, w, lb_totals, swept, met, compared, outcome)


def _finish(scan: _Scan, params: SearchParams, adv: Method | None) -> NnOutcome:
    """The second stage of nn_search: the advanced bound `adv` (resolved by
    _advanced_method) under `params`, and the counters; `scan` stays as it is."""
    qa, planes, w = scan.qa, scan.planes, scan.w
    n, dims = qa.shape
    count = planes.shape[-1]
    out = replace(scan.outcome)
    # Work-model charges in scan order: the per-query builds, then per
    # candidate its envelope bound, advanced bound and DP cells (zero where
    # the scan does not spend them).  Summed left to right at the end.
    setup_work = []
    charges = np.zeros((count, 3))
    if scan.lb_totals is not None:
        setup_work.append(n * dims)
        charges[1:, 0] = n * dims

    # The advanced bound's per-query build and the bound on the candidates
    # it triggers on (trigger < bound / d_best < 1), at once, charged to
    # lb_time.  Per bound: its kernel (the per-point terms of a plane set),
    # the floats its temporaries take per candidate, and its work-model
    # price per evaluation (point-dimension touches, as for every bound).
    compared = scan.compared.copy()
    if adv is not None:
        t0 = time.perf_counter()
        if adv == Method.LB_TI:
            p = min(params.refresh_period, n)
            setup_work.append(n * dims)
            adv_terms = partial(lb_ti_terms, qa, w=w, refresh_period=p, qsteps=neighbor_steps(qa))
            adv_floats = -(-n // p) * (2 * w + p) * dims
            adv_work = n * (4.0 + (2.0 + w / params.refresh_period) * dims)
        elif adv == Method.LB_PC:
            boxes = build_box_sets(qa, w, params.group_width, params.quant_levels,
                                   params.max_boxes, params.min_cell_frac, scan.ref)
            setup_work.append(n * dims * (1 + params.quant_levels))
            adv_terms = partial(lb_pc_terms, grouping=boxes)
            adv_floats = n * boxes.lo.shape[2] * dims
            adv_work = n * params.max_boxes * dims
        else:  # LB_AD
            adv_terms = partial(lb_ad_terms, qa, w=w)
            adv_floats = n * dims
            adv_work = n * (2.0 * w + 1.0) * dims
        band = compared[1:] & (scan.lb_totals[1:] > _trigger(params, adv) * scan.met[1:])
        triggered = np.flatnonzero(band) + 1
        if len(triggered):
            last, peak = _prune_sums(_blockwise(adv_terms, planes[..., triggered], adv_floats))
            bar = scan.met[triggered]
            compared[triggered] = ~((last >= bar) | (peak > bar))
        charges[triggered, 1] = adv_work
        out.advanced_lb_evals = len(triggered)
        out.lb_time += time.perf_counter() - t0

    if (compared & ~scan.swept).any():
        raise RuntimeError("the DTW sweep missed a compared candidate: a diagonal-path "
                           "cost fell below its DTW distance")

    # Exact DTW of the compared candidates, each its whole band of
    # n(2w+1) - w(w+1) cells.
    charges[compared, 2] = (n * (2 * w + 1) - w * (w + 1)) * dims
    out.dtw_computed = int(compared.sum())
    out.dtw_skipped = count - out.dtw_computed
    out.work = float(sequential_sums(np.concatenate([setup_work, charges.ravel()])))
    return out


def _sample(items: list, size: int, rng: np.random.Generator) -> list:
    if len(items) <= size:
        return list(items)
    idx = rng.choice(len(items), size=size, replace=False)
    return [items[i] for i in sorted(idx)]


def selection_sample(queries, candidates, seed: int) -> tuple[list, list]:
    """The seeded sample that tuning and bound selection run on: up to 8
    queries, then up to 23 candidates, each drawn uniformly without
    replacement from one generator and kept in their given order.  `seed`
    is an integer >= 0 (as_int)."""
    rng = np.random.default_rng(as_int(seed, "seed", 0))
    return (_sample(list(queries), TUNE_QUERY_SAMPLE, rng),
            _sample(list(candidates), TUNE_CANDIDATE_SAMPLE, rng))


def _sample_scans(queries, candidates, params: SearchParams, dim_range) -> list[_Scan]:
    """A bounded scan of each sample query, checked as nn_search checks it;
    an empty sample raises InvalidInputError."""
    if len(queries) == 0 or len(candidates) == 0:
        raise InvalidInputError("selection sample is empty")
    scans = []
    for q in queries:
        qa = as_series(q)
        ref = as_dim_range(dim_range, qa)
        planes = _stack_candidates(candidates, qa.shape)
        scans.append(_scan(qa, ref, planes, params.effective_window(len(qa)), True))
    return scans


def _run_sample(scans: list[_Scan], params: SearchParams) -> float:
    """nn_search's work summed over the scanned queries, for params.method."""
    cost = 0.0
    for scan in scans:
        cost += _finish(scan, params, _advanced_method(params, None)).work
    return cost


def tc_dtw_select(
    sample_queries,
    sample_candidates,
    params: SearchParams,
    dim_range: np.ndarray | None = None,
) -> Method:
    """Pick the cheaper of the triangle and clustering bounds on a sample.

    Runs the search with both bounds over the sample and returns the method
    whose deterministic work-model cost is smaller; ties go to LB_PC.
    """
    scans = _sample_scans(sample_queries, sample_candidates, params, dim_range)
    cost_ti = _run_sample(scans, replace(params, method=Method.LB_TI))
    cost_pc = _run_sample(scans, replace(params, method=Method.LB_PC))
    return Method.LB_TI if cost_ti < cost_pc else Method.LB_PC


_GRID_E_TI = (0.05, 0.1, 0.2)
_GRID_E_PC = (0.1, 0.5)
_GRID_LEVELS = (2, 3)


def tune_params(
    queries,
    candidates,
    params: SearchParams,
    seed: int = 0,
    dim_range: np.ndarray | None = None,
    log: list | None = None,
) -> SearchParams:
    """Grid-search triggering thresholds (and quantization level) on a sample.

    The sample is selection_sample(queries, candidates, seed).  Depending on
    params.method the grid covers the triangle trigger (3 runs), the
    clustering trigger x quantization level (4 runs), or both (7 runs for
    TC_DTW).  The SearchParams constants (refresh period, box cap, group
    width, cell floor) stay fixed.  Each grid evaluation is appended to `log`
    when given, as (method, params, cost).
    """
    method = params.method
    if method in (Method.NONE, Method.LB_MV):
        return params
    scans = _sample_scans(*selection_sample(queries, candidates, seed), params, dim_range)

    def eval_grid(adv: Method, variants: list[SearchParams]) -> SearchParams:
        best, best_cost = None, None
        for p in variants:
            cost = _run_sample(scans, replace(p, method=adv))
            if log is not None:
                log.append((adv, p, cost))
            if best_cost is None or cost < best_cost:
                best, best_cost = p, cost
        return best

    tuned = params
    if method in (Method.LB_TI, Method.LB_AD, Method.TC_DTW):
        adv = Method.LB_TI if method == Method.TC_DTW else method
        cands = [replace(params, trigger_ti=e) for e in _GRID_E_TI]
        tuned = replace(tuned, trigger_ti=eval_grid(adv, cands).trigger_ti)
    if method in (Method.LB_PC, Method.TC_DTW):
        cands = [
            replace(params, trigger_pc=e, quant_levels=lv)
            for e in _GRID_E_PC
            for lv in _GRID_LEVELS
        ]
        best = eval_grid(Method.LB_PC, cands)
        tuned = replace(tuned, trigger_pc=best.trigger_pc, quant_levels=best.quant_levels)
    return tuned
