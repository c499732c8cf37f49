"""The batched bound kernels the search runs once per query on its (D, n, C)
plane set, and the prune rule it reads from their terms."""

import math
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdtw import (
    Method,
    SearchParams,
    build_box_sets,
    build_envelope,
    lb_ad,
    lb_mv,
    lb_pc,
    lb_ti,
    neighbor_steps,
    nn_search,
)
from mvdtw.lb_mv import lb_ad_terms
from mvdtw.lb_pc import lb_pc_terms
from mvdtw.lb_ti import lb_ti_terms
from mvdtw.search import _prune_sums, _stack_candidates

from oracles import (
    reference_lb_ad_terms, reference_lb_pc_terms, reference_lb_ti, sum_with_abandon,
)


def stacked_case(seed, kind, count, n, dims):
    """A query and a (count, n, D) stack: random walks, iid noise, or values
    near 1e160, whose squared differences overflow to +inf (and then give
    inf - inf = NaN in the triangle bound's interval advance)."""
    g = np.random.default_rng(seed)
    data = g.normal(size=(count + 1, n, dims))
    if kind == "walk":
        data = np.cumsum(data, axis=1)
    elif kind == "overflow":
        data = np.round(data) * 1e160
    return data[0], data[1:]


def same_array_bits(a, b) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["walk", "iid", "overflow"]),
    count=st.integers(1, 5),
    n=st.integers(1, 24),
    dims=st.sampled_from([*range(1, 11), 24]),
    extra_window=st.integers(0, 27),
    period=st.sampled_from([1, 2, 5, "n"]),
    budget=st.sampled_from([1, 7, "default"]),
)
def test_terms_kernels_equal_the_per_pair_bounds(seed, kind, count, n, dims, extra_window, period,
                                                 budget):
    # the kernels chunk their rows within the float budget: one row (or
    # P-row block) a chunk at 1, a few at 7, one chunk at these sizes by
    # default; every chunk edge must leave the terms' bits unchanged
    window = extra_window % (n + 4)  # W in [0, n + 3]; W >= n is capped at n - 1
    w = min(window, n - 1)
    p = n if period == "n" else period
    q, cas = stacked_case(seed, kind, count, n, dims)
    planes = _stack_candidates(cas, q.shape)
    with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as mp:
        env = build_envelope(q, w)
        boxes = build_box_sets(q, w, 6, 2, 6, 1e-5)
        if budget != "default":
            for module in ("mvdtw.lb_pc", "mvdtw.lb_mv", "mvdtw.lb_ti"):
                mp.setattr(sys.modules[module], "BLOCK_FLOATS", budget)
        mv = lb_pc_terms(planes, env)
        ti = lb_ti_terms(q, planes, w, p, neighbor_steps(q))
        pc = lb_pc_terms(planes, boxes)
        ad = lb_ad_terms(q, planes, w)
        mp.undo()
        assert mv.shape == ti.shape == pc.shape == ad.shape == (n, count)
        # the per-pair lb_mv, lb_pc and lb_ad run these kernels on one
        # candidate, so the dimension-last formulas are the independent check
        assert same_array_bits(mv.T, reference_lb_pc_terms(cas, env))
        assert same_array_bits(pc.T, reference_lb_pc_terms(cas, boxes))
        assert same_array_bits(ad.T, reference_lb_ad_terms(q, cas, w))
        # every per-pair bound is the left-to-right total of its terms
        for k, c in enumerate(cas):
            totals = [float(np.cumsum(terms[:, k])[-1]).hex() for terms in (mv, ti, ti, pc, ad)]
            assert totals == [lb_mv(c, env).value.hex(),
                              lb_ti(q, c, window, refresh_period=p).value.hex(),
                              reference_lb_ti(q, c, window, "tip_top", p).value.hex(),
                              lb_pc(c, boxes).value.hex(),
                              lb_ad(q, c, window).value.hex()]


@pytest.mark.parametrize("budget", [1, 7, "default"])
@pytest.mark.parametrize("window", [0, 4, 22])
@pytest.mark.parametrize("shape", ["runs", "constant"])
def test_lb_ti_terms_on_repeated_query_points_and_short_last_blocks(shape, window, budget):
    # runs of equal consecutive query points (or a constant query) take zero
    # steps, whose advance leaves out the safety pad; n = 23 is no multiple
    # of P = 5, so the last block holds 3 rows and its top slots cap at row
    # n - 1; candidate 0 is the query itself, every true distance 0
    g = np.random.default_rng(11)
    n, dims, count, p = 23, 3, 6, 5
    if shape == "runs":
        q = np.repeat(np.cumsum(g.normal(size=(8, dims)), axis=0), [1, 4, 2, 3, 1, 5, 3, 4], axis=0)
    else:
        q = np.full((n, dims), 0.25)
    cas = np.cumsum(g.normal(size=(count, n, dims)), axis=1)
    cas[0] = q
    steps = neighbor_steps(q)
    assert (steps == 0.0).any()
    with pytest.MonkeyPatch.context() as mp:
        if budget != "default":
            mp.setattr(sys.modules["mvdtw.lb_ti"], "BLOCK_FLOATS", budget)
        terms = lb_ti_terms(q, _stack_candidates(cas, q.shape), window, p, steps)
    assert terms.shape == (n, count)
    for k, c in enumerate(cas):
        total = float(np.cumsum(terms[:, k])[-1]).hex()
        assert total == lb_ti(q, c, window, refresh_period=p).value.hex()
        assert total == reference_lb_ti(q, c, window, "tip_top", p).value.hex()


def test_prune_rule_equals_sum_with_abandon():
    g = np.random.default_rng(9)
    rows = [g.random(7), np.zeros(7), np.array([1.0, 2.0, np.inf, 0.0]),
            np.array([1.0, 2.0, np.nan, 0.0]), np.array([np.nan, 1.0]),
            np.array([3.0, np.inf, np.nan]), np.array([0.5])]
    for row in rows:
        (last,), (peak,) = _prune_sums(row[:, None])
        total = float(np.cumsum(row)[-1])
        finite = [float(s) for s in np.cumsum(row) if math.isfinite(s)]
        cuts = {0.0, 1.0, 2.5, 3.0, math.inf, *finite}
        if math.isfinite(total):
            cuts |= {math.nextafter(total, -math.inf), total, math.nextafter(total, math.inf)}
        for d in cuts:
            want = sum_with_abandon(row, d) >= d
            assert (last >= d or peak > d) == want, (row, d)


@pytest.mark.parametrize("method, advanced, limit_mb", [
    (Method.LB_AD, None, 24),
    (Method.LB_TI, None, 24),
    (Method.TC_DTW, Method.LB_TI, 24),
    (Method.TC_DTW, Method.LB_PC, 24),
])
def test_batched_bounds_stay_in_budget_on_long_series(method, advanced, limit_mb):
    # every candidate after the first is a little closer to the query than
    # the one before it, so the scan triggers the advanced bound on each
    g = np.random.default_rng(4)
    q = g.normal(size=(2000, 3))
    cands = [q + 3.0] + [q + (0.6 - 0.01 * k) for k in range(29)]
    params = SearchParams(window=200, method=method, trigger_ti=0.001, trigger_pc=0.001)
    tracemalloc.start()
    try:
        out = nn_search(q, cands, params, advanced=advanced)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.advanced_lb_evals == 29
    # each kernel chunks its rows within the float budget, all 29 candidates
    # at once; traced peaks read 4.3 (lb_ad), 5.1 (lb_ti, alone and under
    # tc_dtw) and 17.5 MB (lb_pc under tc_dtw), against 4.0, 4.5, 4.5 and
    # 17.1 MB when the search cut the candidates into blocks instead.  One
    # candidate's whole (n, 2W + 1, D) cost band would take ~75 MB
    assert peak < limit_mb * 2**20


@pytest.mark.parametrize("kernel", ["envelope", "lb_pc", "lb_ad", "lb_ti"])
def test_kernels_on_many_candidates_stay_below_their_plane_set(kernel):
    # each kernel chunks its rows and takes every candidate at once, so its
    # temporaries stay within the float budget (at least one row or P-row
    # block) however many candidates it is given: far below the (D, n, C)
    # plane set's own 9.4 MB here
    g = np.random.default_rng(5)
    n, dims, count, w = 256, 12, 400, 25
    q = np.cumsum(g.normal(size=(n, dims)), axis=0)
    planes = np.cumsum(g.normal(size=(dims, n, count)), axis=1)
    if kernel == "envelope":
        terms = partial(lb_pc_terms, grouping=build_envelope(q, w))
    elif kernel == "lb_pc":
        boxes = build_box_sets(q, w, 6, 3, 6, 1e-5)
        assert boxes.lo.shape[2] == 6
        terms = partial(lb_pc_terms, grouping=boxes)
    elif kernel == "lb_ad":
        terms = partial(lb_ad_terms, q, w=w)
    else:
        terms = partial(lb_ti_terms, q, w=w, refresh_period=SearchParams.refresh_period,
                        qsteps=neighbor_steps(q))
    tracemalloc.start()
    try:
        out = terms(planes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, count)
    assert peak < planes.nbytes, (kernel, peak)
