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

Each search is resolved once (`_runs_as`) to the method it runs as, its own
or TC_DTW's pick, and that one Method drives both stages of the batch pass
(see nn_search), which apply one cascade, `_cascade`, at two bars: `_scan`
sweeps what it keeps at the diagonal-path bound U, which the d_best each
candidate meets cannot exceed (with a PRESWEPT bound in it), and derives
those d_best; `_finish` counts what it keeps at them under one SearchParams.

Method and parameter selection on a data sample ranks configurations
(`_rank`: the first cheapest wins) by a deterministic work model (bound
point-touches and a full band of DP cells per compared DTW, dimension
weighted) rather than wall time, so repeated runs with one seed pick the
same configuration and produce bit-identical counters; wall times are still
measured and reported.  Selection scans its sample queries together as
LB_MV and finishes each scan as every method it compares, each advanced
bound once per candidate and configuration.  TC_DTW's selection also prices
the plain sweep, as `_finish` charges method `none`, so where no bound pays
on the sample TC_DTW runs as none: no envelope, no advanced bound, no
diagonal-path costs.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from typing import NamedTuple

import numpy as np

from .core import (
    BLOCK_FLOATS, InvalidInputError, Method, SearchParams, as_int, as_series, sequential_sums,
)
from .dtw import dtw_rows
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
    compared ones and more).  LB_PC and LB_AD, run before the sweep, leave
    out of it the candidates they prune at the diagonal-path bound, so they
    sweep fewer than the envelope leaves; LB_TI, run after it, does not.
    `work` is the deterministic work-model total used for tuning decisions.
    A TC_DTW search gives the outcome of the method it runs as (its pick)
    under the same SearchParams, field for field, timers aside.
    Timers are seconds; lb_time + dtw_time <= total_time.  lb_time holds
    the builds, the envelope and the cascade at both bars with the advanced
    bound in it; dtw_time the diagonal-path costs and the sweep.  When the queries
    of a selection sample share one DTW sweep, each query's dtw_time takes
    the sweep's time in proportion to its swept candidates (dtw_swept), and
    its total_time is the time of its own stages plus that share.
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


# The advanced bounds each method deploys at the cascade's second step, in
# the order tune_params tunes them; TC_DTW deploys the one of its two that
# tc_dtw_select picks, or runs no bound at all (NONE, the plain sweep) where
# neither pays on its sample.
DEPLOYED = {Method.NONE: (), Method.LB_MV: (), Method.LB_TI: (Method.LB_TI,),
            Method.LB_PC: (Method.LB_PC,), Method.LB_AD: (Method.LB_AD,),
            Method.TC_DTW: (Method.LB_TI, Method.LB_PC)}
# The SearchParams fields each advanced bound's tuning grid sets.  The grid
# is the product of the fields' _GRID values, the first field outermost.
TUNED_FIELDS = {Method.LB_TI: ("trigger_ti",), Method.LB_PC: ("trigger_pc", "quant_levels"),
                Method.LB_AD: ("trigger_ti",)}
_GRID = {"trigger_ti": (0.05, 0.1, 0.2), "trigger_pc": (0.1, 0.5), "quant_levels": (2, 3)}
# The advanced bounds nn_search runs before its DTW sweep: those that
# dominate the envelope (lb_mv <= lb_pc <= lb_ad), so that they can prune
# where it does not.  LB_TI runs after the sweep only.
PRESWEPT = (Method.LB_PC, Method.LB_AD)


def _runs_as(params: SearchParams, advanced: Method | None) -> Method:
    """The method a search under `params` runs as: params.method, or
    TC_DTW's pick `advanced` (one of its DEPLOYED bounds or NONE, the plain
    sweep), which any other method rejects."""
    deployed = DEPLOYED[params.method]
    if len(deployed) > 1:
        if advanced not in (*deployed, Method.NONE):
            raise InvalidInputError("TC_DTW must be resolved with tc_dtw_select first")
        return advanced
    if advanced is not None:
        raise InvalidInputError(f"advanced={advanced!r} applies only to method tc_dtw, "
                                f"not {params.method.value}")
    return params.method


def _stack_candidates(candidates, shape: tuple) -> np.ndarray:
    """Validate the candidates once, as the C-contiguous (D, n, C) float64
    plane set every batched kernel reads (dimension, point, candidate).

    Every candidate must be a series (as_series) of the query's shape;
    anything else raises InvalidInputError naming the first bad candidate in
    order.  Equal-shape arrays (1-D if univariate) convert in one call; the
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
                a = as_series(c)
            except InvalidInputError as exc:
                raise InvalidInputError(f"candidate {k}: {exc}") from None
            if a.shape != shape:
                raise InvalidInputError(f"candidate {k} has shape {a.shape}, query has {shape}")
            arrays.append(a)
        if not arrays:
            raise InvalidInputError("candidate list is empty")
        stack = np.stack(arrays)
    return np.ascontiguousarray(stack.transpose(2, 1, 0))


def _prune_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For (n, C) bound terms, the totals S[-1] and NaN-skipping peaks
    fmax(S) of each column's prefix sums S.  The one-at-a-time scan adds a
    candidate's terms left to right and prunes it at the first prefix above
    d_best, or at a total >= d_best, so it prunes exactly when S[-1] >=
    d_best or fmax(S) > d_best, also when a later prefix is NaN (inf - inf
    from overflowed distances).  _cascade applies this rule."""
    sums = np.cumsum(terms, axis=0)
    return sums[-1], np.fmax.reduce(sums, axis=0)


@dataclass
class _Scan:
    """One query's first stage.  Without a PRESWEPT bound (as tuning and
    selection scan, as LB_MV), triggers, quantization level and advanced
    bound leave it unchanged; with one, its swept set and distances depend
    on that bound's configuration.  `evals` holds, per bound configuration
    (_Bound.key), its evaluation record (_cascade): the built kernel, which
    candidates it has evaluated, and their _prune_sums totals and peaks;
    every decision is taken from these at the bar in hand."""

    qa: np.ndarray
    ref: np.ndarray  # the cell-size floor's reference range (as_dim_range)
    planes: np.ndarray
    w: int
    lb_totals: np.ndarray | None  # envelope bounds; None when no bound runs
    swept: np.ndarray
    distances: np.ndarray  # exact DTW distances of the swept, +inf elsewhere
    met: np.ndarray  # the d_best each candidate meets
    outcome: NnOutcome  # the answer, dtw_swept and timers so far
    evals: dict


def nn_search(
    query,
    candidates,
    params: SearchParams,
    advanced: Method | None = None,
    dim_range: np.ndarray | None = None,
) -> NnOutcome:
    """Find the candidate with the smallest banded DTW distance to `query`.

    Candidates are processed in the given order; d_best starts from an exact
    DTW against the first candidate.  `advanced` is TC_DTW's pick (fill it
    from tc_dtw_select): LB_TI, LB_PC or NONE, the plain sweep.  `dim_range`
    is the dataset's per-dimension value range, used by the clustering
    bound's minimum cell size.

    Four steps in turn: _checked checks the query, `dim_range` (for every
    method) and the candidates before any work; _runs_as resolves the method
    the search runs as, checking `advanced`; _scan and _finish run as it.
    The work is one batch pass: the envelope bound of every candidate at
    once; for LB_PC and LB_AD, which dominate the envelope, the advanced
    bound on the candidates it may be triggered on, so that the sweep leaves
    out those it prunes already; one batched DTW sweep (dtw_rows) to the
    last row of every candidate the scan might still have to compare
    exactly (`dtw_swept` of them); then the advanced bound on the triggered
    candidates not yet evaluated.  Every skip, trigger and prune decision is
    then a comparison of these values with the d_best each candidate meets,
    so the answer and every counter equal the one-at-a-time scan's.  Raises
    RuntimeError if the sweep missed a candidate the scan compares, which
    only a diagonal-path cost below the DTW distance could cause.
    """
    t_start = time.perf_counter()
    checked, planes = _checked([(0, query)], candidates, dim_range)
    runs = _runs_as(params, advanced)
    scan, = _scan(checked, planes, params, runs)
    out = _finish(scan, params, runs)
    out.total_time = time.perf_counter() - t_start
    return out


def _checked(labelled, candidates, dim_range) -> tuple[list, np.ndarray]:
    """The search's one checked entry: each (label, query) pair's query
    (as_series) and range (as_dim_range) in turn, the candidates stacked
    (_stack_candidates) for the first query's shape.  A later query of
    another shape raises, named by its label, as does an empty query list.
    Returns the (query, range) pairs and the candidates' planes."""
    checked, planes = [], None
    for label, q in labelled:
        qa = as_series(q)
        checked.append((qa, as_dim_range(dim_range, qa)))
        if planes is None:
            planes = _stack_candidates(candidates, qa.shape)
        elif planes.shape[1::-1] != qa.shape:
            raise InvalidInputError(f"query {label} has shape {qa.shape}, "
                                    f"candidates have {planes.shape[1::-1]}")
    if not checked:
        raise InvalidInputError("query list is empty")
    return checked, planes


def _scan(checked, planes, params: SearchParams, runs: Method) -> list[_Scan]:
    """nn_search's first stage for each `checked` (query, range) pair
    against the candidates' `planes` under params' window, as method `runs`:
    NONE runs no bound, PRESWEPT bounds run before the sweep, others run the
    envelope alone (so tuning and selection, scanning as LB_MV, sweep once
    for every configuration).

    One DTW sweep covers the (query, candidate) columns of every query's
    swept candidates, in dtw_rows calls of at most max(C, BLOCK_FLOATS //
    (n D)) columns, so a call's gathered planes never outgrow the
    candidates' plane set or one block.  A query's dtw_time gets the sweep's
    time in proportion to its columns.
    """
    bounded = runs != Method.NONE
    dims, n, count = planes.shape
    w = params.effective_window(n)
    stages = []
    for qa, ref in checked:
        # The batched envelope bound (the one-box lb_pc), charged to lb_time.
        t0 = time.perf_counter()
        lb_totals = None
        if bounded:
            env = build_envelope(qa, w)
            lb_totals = sequential_sums(lb_pc_terms(planes, env))
        t1 = time.perf_counter()

        # The diagonal-path bound U (`upper`), charged to dtw_time.  d_best
        # only falls, and once candidate k has been scanned it is at most the
        # cost of k's diagonal path (an upper bound of k's DTW distance,
        # lb_ad at window 0): the scan either compared k exactly or skipped
        # it on a lower bound at or above d_best.  So the d_best candidate k
        # meets is at most the prefix minimum `upper[k]` of the earlier
        # diagonal costs.
        upper = np.full(count, np.inf)
        if bounded:
            diagonal = sequential_sums(lb_ad_terms(qa, planes, 0))
            np.minimum.accumulate(diagonal[:-1], out=upper[1:])
        t2 = time.perf_counter()

        # The sweep takes what the cascade keeps at upper, with the PRESWEPT
        # bound if one runs, charged to lb_time.  Each step of the cascade
        # keeps at a bar what it keeps at a lower one, so every candidate
        # the scan compares at the d_best it meets (<= upper) is swept.  The
        # sweep runs each of them to the end, also those the scan will skip.
        evals = {}
        bound = _bound(qa, w, ref, params, runs) if runs in PRESWEPT else None
        swept, _ = _cascade(lb_totals, upper, bound, evals, planes)
        stages.append((lb_totals, swept, np.flatnonzero(swept), evals,
                       t1 - t0 + time.perf_counter() - t2, t2 - t1))

    # The sweep: column k's query is qstack[..., owner[k]], one query's
    # planes broadcast over every column.
    t0 = time.perf_counter()
    needs = [stage[2] for stage in stages]
    gathered = np.concatenate(needs)
    qstack = np.stack([qa.T for qa, _ in checked], axis=-1)
    owner = np.repeat(np.arange(len(checked)), [len(need) for need in needs])
    cap = max(count, BLOCK_FLOATS // (n * dims))
    whole = len(checked) == 1 and len(gathered) == count  # every candidate, in order
    finals = np.concatenate([
        dtw_rows(qstack if len(checked) == 1 else qstack.take(owner[b : b + cap], axis=-1),
                 planes if whole else planes.take(gathered[b : b + cap], axis=-1), w)
        for b in range(0, len(gathered), cap)])
    took = time.perf_counter() - t0

    scans, start = [], 0
    for (qa, ref), (lb_totals, swept, need, evals, lb_time, dtw_time) in zip(checked, stages):
        # `met[k]`, the d_best candidate k meets.  Every bound is sound, so it
        # is the smallest DTW distance among candidates 0..k-1: a skipped
        # candidate's distance is at least the d_best it met.  The sweep
        # computed those distances exactly, and a candidate it left out is at
        # least the d_best it meets (+inf here).  Candidate 0 meets +inf, and
        # so does every candidate of `none`.
        t0 = time.perf_counter()
        distances = np.full(count, np.inf)
        distances[need] = finals[start : start + len(need)]
        start += len(need)
        met = np.full(count, np.inf)
        if bounded:
            np.minimum.accumulate(distances[:-1], out=met[1:])
        best = int(np.argmin(distances))  # the first minimum, as the scan's strict <
        dtw_time += took * len(need) / len(gathered) + time.perf_counter() - t0
        outcome = NnOutcome(best, float(distances[best]), lb_time=lb_time,
                            dtw_time=dtw_time, total_time=lb_time + dtw_time,
                            dtw_swept=len(need))
        scans.append(_Scan(qa, ref, planes, w, lb_totals, swept, distances, met, outcome, evals))
    return scans


def _cascade(lb_totals, bar, bound, evals: dict, planes) -> tuple[np.ndarray, np.ndarray]:
    """The search's one cascade, with each candidate k meeting the d_best
    `bar[k]`: the mask of candidates compared exactly and the indices of
    those `bound` (a _Bound or None) is triggered on.  Candidate k >= 1 is
    not compared if its envelope bound reaches bar[k], or if trigger *
    bar[k] < its envelope bound and `bound` prunes it at bar[k] (_prune_sums'
    rule); with no `lb_totals` (method none) all are.  `bound` runs only on
    triggered candidates its record evals[bound.key] (kernel, evaluated
    mask, totals, peaks; made, and the kernel built, at the first trigger)
    has not evaluated, so once per candidate whatever bars later calls bring."""
    count = planes.shape[-1]
    compared = np.ones(count, dtype=bool)
    triggered = np.empty(0, dtype=np.intp)
    if lb_totals is not None:
        compared[1:] = ~(lb_totals[1:] >= bar[1:])
        if bound is not None:
            triggered = np.flatnonzero(compared[1:] & (lb_totals[1:] > bound.trigger * bar[1:])) + 1
    if len(triggered):
        if bound.key not in evals:
            evals[bound.key] = (bound.build(), np.zeros(count, dtype=bool),
                                np.empty(count), np.empty(count))
        kernel, done, last, peak = evals[bound.key]
        new = triggered[~done[triggered]]
        if len(new):
            last[new], peak[new] = _prune_sums(kernel(planes.take(new, axis=-1)))
            done[new] = True
        at = bar[triggered]
        compared[triggered] = ~((last[triggered] >= at) | (peak[triggered] > at))
    return compared, triggered


class _Bound(NamedTuple):
    """One advanced bound under one SearchParams for one scanned query."""

    trigger: float  # it runs where trigger < envelope bound / d_best < 1
    key: tuple  # its record in _Scan.evals: the bound and the fields its values depend on
    build_work: float  # work-model charge of the per-query build, whether or not it runs
    eval_work: float  # work-model charge per evaluation (point-dimension touches)
    build: Callable  # () -> its kernel, (D, n, C) planes -> (n, C) terms in chunks it sizes


def _bound(qa: np.ndarray, w: int, ref: np.ndarray, params: SearchParams, adv: Method) -> _Bound:
    """The advanced bound `adv` (LB_TI, LB_PC or LB_AD) under `params` for a
    scanned query `qa`, its effective window `w` and its cell-size floor's
    reference range `ref`: the one place the search tells the three apart.
    `build` runs the per-query build (neighbour steps, box sets)."""
    n, dims = qa.shape
    if adv == Method.LB_TI:
        p = params.refresh_period  # lb_ti_terms caps it at n
        return _Bound(params.trigger_ti, (adv,), n * dims, n * (4.0 + (2.0 + w / p) * dims),
                      lambda: partial(lb_ti_terms, qa, w=w, refresh_period=p,
                                      qsteps=neighbor_steps(qa)))
    if adv == Method.LB_PC:
        return _Bound(params.trigger_pc, (adv, params.quant_levels),
                      n * dims * (1 + params.quant_levels), n * params.max_boxes * dims,
                      lambda: partial(lb_pc_terms, grouping=build_box_sets(
                          qa, w, params.group_width, params.quant_levels, params.max_boxes,
                          params.min_cell_frac, ref)))
    return _Bound(params.trigger_ti, (adv,), 0, n * (2.0 * w + 1.0) * dims,
                  lambda: partial(lb_ad_terms, qa, w=w))


def _finish(scan: _Scan, params: SearchParams, runs: Method) -> NnOutcome:
    """The second stage of nn_search: the counters of the cascade
    (_cascade) at the d_best each candidate meets, as method `runs` (never
    TC_DTW: _runs_as resolves it) under `params`, charged to lb_time.  The
    bound `runs` deploys, if any, runs only on triggered candidates its
    evaluation record in scan.evals has not evaluated (under its key: LB_PC
    with its quantization level, LB_TI or LB_AD), and its per-query build
    the first time one is triggered; nothing else of `scan` changes.

    NONE is the plain sweep: no envelope and no bound, every candidate
    compared and charged its band.  On a selection sample's scan that prices
    the plain sweep; only the answer, `dtw_swept` and timers stay the scan's."""
    t_start = time.perf_counter()
    planes, w = scan.planes, scan.w
    dims, n, count = planes.shape
    out = replace(scan.outcome)
    # Work-model charges in scan order: the per-query builds, then per
    # candidate its envelope bound, advanced bound and DP cells (zero where
    # the scan does not spend them).  Summed left to right at the end.
    setup_work = []
    charges = np.zeros((count, 3))
    t0 = time.perf_counter()
    lb_totals = None if runs == Method.NONE else scan.lb_totals
    bound = _bound(scan.qa, w, scan.ref, params, runs) if DEPLOYED[runs] else None
    compared, triggered = _cascade(lb_totals, scan.met, bound, scan.evals, planes)
    if lb_totals is not None:
        out.lb_time += time.perf_counter() - t0
        out.lb_mv_evals = count - 1
        setup_work.append(n * dims)
        charges[1:, 0] = n * dims
    if bound is not None:
        setup_work.append(bound.build_work)
        charges[triggered, 1] = bound.eval_work
        out.advanced_lb_evals = len(triggered)

    if lb_totals is not None and (compared & ~scan.swept).any():
        raise RuntimeError("the DTW sweep missed a compared candidate: a diagonal-path "
                           "cost fell below its DTW distance")

    # Exact DTW of the compared candidates, each its whole band of
    # n(2w+1) - w(w+1) cells.
    charges[compared, 2] = (n * (2 * w + 1) - w * (w + 1)) * dims
    out.dtw_computed = int(compared.sum())
    out.dtw_skipped = count - out.dtw_computed
    out.work = float(sequential_sums(np.concatenate([setup_work, charges.ravel()])))
    out.total_time += time.perf_counter() - t_start
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


def _sample_scans(labelled, candidates, params: SearchParams, dim_range) -> list[_Scan]:
    """The sample's (label, query) pairs scanned as LB_MV; an empty sample is rejected."""
    if len(labelled) == 0 or len(candidates) == 0:
        raise InvalidInputError("selection sample is empty")
    return _scan(*_checked(labelled, candidates, dim_range), params, Method.LB_MV)


def _rank(scans: list[_Scan], configs: list, log: list | None = None) -> tuple:
    """The first of `configs`, (method it runs as, SearchParams) pairs, whose
    work summed over the scanned queries (each nn_search's, in query order)
    is smallest.  Each is appended to `log`, when given, as (method, params,
    cost)."""
    costs = []
    for runs, p in configs:
        cost = 0.0
        for scan in scans:
            cost += _finish(scan, p, runs).work
        costs.append(cost)
        if log is not None:
            log.append((runs, p, cost))
    return configs[costs.index(min(costs))]


def tc_dtw_select(
    sample_queries,
    sample_candidates,
    params: SearchParams,
    dim_range: np.ndarray | None = None,
    log: list | None = None,
) -> Method:
    """Pick the cheapest of the clustering bound, the triangle bound and
    the plain sweep on a sample.

    Finishes the sample's scans with each option and returns the one whose
    deterministic work-model cost is smallest: LB_PC, LB_TI, or NONE, the
    plain sweep of method `none` (every candidate's full band, no envelope),
    for which nn_search runs no bound.  Ties go to LB_PC, then LB_TI.  Each
    option is appended to `log` when given, as (option, params, cost).
    """
    scans = _sample_scans(list(enumerate(sample_queries)), sample_candidates, params, dim_range)
    # LB_PC ranked first and the plain sweep last, so that a tie goes to
    # LB_PC, then LB_TI
    options = (*reversed(DEPLOYED[Method.TC_DTW]), Method.NONE)
    adv, _ = _rank(scans, [(m, params) for m in options], log)
    return adv


def tune_params(
    queries,
    candidates,
    params: SearchParams,
    seed: int = 0,
    dim_range: np.ndarray | None = None,
    log: list | None = None,
) -> SearchParams:
    """Grid-search triggering thresholds (and quantization level) on a sample.

    The sample is selection_sample(queries, candidates, seed).  Each advanced
    bound the method deploys (DEPLOYED) is tuned on its TUNED_FIELDS grid:
    the triangle trigger (3 runs) for LB_TI and LB_AD, the clustering trigger
    x quantization level (4 runs) for LB_PC, both (7 runs) for TC_DTW.  The
    SearchParams constants (refresh period, box cap, group width, cell floor)
    stay fixed.  Each grid evaluation is appended to `log` when given, as
    (method, params, cost).
    """
    if not DEPLOYED[params.method]:
        return params
    drawn, sample_candidates = selection_sample(list(enumerate(queries)), candidates, seed)
    scans = _sample_scans(drawn, sample_candidates, params, dim_range)
    tuned = params
    for adv in DEPLOYED[params.method]:
        fields = TUNED_FIELDS[adv]
        grid = [replace(params, **dict(zip(fields, values)))
                for values in product(*(_GRID[f] for f in fields))]
        _, best = _rank(scans, [(adv, p) for p in grid], log)
        tuned = replace(tuned, **{f: getattr(best, f) for f in fields})
    return tuned


def verify_bounds(queries, candidates, params: SearchParams, dim_range=None) -> None:
    """Check the envelope bound and the three advanced bounds, as the search
    computes them under `params`, against exact DTW on the first 3 queries
    x 8 candidates; raise InvalidInputError at the first bound above its
    DTW distance.  `mvdtw-bench --verify` runs it.

    The queries are checked (_checked) and scanned as NONE, which sweeps
    every candidate, so the scans' distances are all exact (dtw_rows)."""
    checked, planes = _checked(enumerate(queries[:3]), candidates[:8], dim_range)
    for qi, scan in enumerate(_scan(checked, planes, params, Method.NONE)):
        kernels = {"lb_mv": partial(lb_pc_terms, grouping=build_envelope(scan.qa, scan.w))}
        for adv in (Method.LB_TI, Method.LB_PC, Method.LB_AD):
            kernels[adv.value] = _bound(scan.qa, scan.w, scan.ref, params, adv).build()
        for name, terms in kernels.items():
            totals, _ = _prune_sums(terms(scan.planes))
            over = np.flatnonzero(totals > scan.distances)
            if len(over):
                ci = int(over[0])
                raise InvalidInputError(
                    f"soundness violation: {name}={float(totals[ci])!r} exceeds "
                    f"dtw={float(scan.distances[ci])!r} (query {qi}, candidate {ci})")
