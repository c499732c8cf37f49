from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdtw import (
    InvalidInputError,
    Method,
    SearchParams,
    dtw_banded,
    nn_search,
    tc_dtw_select,
    tune_params,
)
from mvdtw.search import selection_sample
from mvdtw.synth import clustered_dataset, iid_noise_dataset, random_walk_dataset, smooth_walk_dataset

ALL_METHODS = list(Method)


def small_problem(rng, num_series=26, n=24, dims=3, seed=1):
    ds = random_walk_dataset(num_series, n, dims, seed=seed)
    series = ds.series_list()
    return series[0], series[1:]


def run_method(q, cands, method, window=5, advanced=None, **kw):
    params = SearchParams(window=window, method=method, **kw)
    if method == Method.TC_DTW and advanced is None:
        advanced = Method.LB_TI
    return nn_search(q, cands, params, advanced=advanced)


def test_none_equals_linear_scan(rng):
    q, cands = small_problem(rng)
    out = run_method(q, cands, Method.NONE)
    dists = [dtw_banded(q, c, 5).distance for c in cands]
    assert out.best_index == int(np.argmin(dists))
    assert out.best_distance == min(dists)
    assert out.dtw_skipped == 0
    assert out.dtw_computed == len(cands)
    assert out.abandon_count == 0
    assert out.lb_mv_evals == 0 and out.advanced_lb_evals == 0


def test_all_methods_agree_exactly(rng):
    for seed, window in ((3, 5), (4, 5), (5, 5), (6, 0)):
        q, cands = small_problem(rng, seed=seed)
        baseline = run_method(q, cands, Method.NONE, window=window)
        for method in ALL_METHODS:
            for advanced in ((Method.LB_TI, Method.LB_PC) if method == Method.TC_DTW else (None,)):
                out = run_method(q, cands, method, window=window, advanced=advanced)
                assert out.best_index == baseline.best_index
                assert out.best_distance == baseline.best_distance
                assert out.dtw_computed + out.dtw_skipped == len(cands)
                assert out.best_distance == dtw_banded(q, cands[out.best_index], window).distance


def test_cascade_skips_superset_of_lb_mv_skips(rng):
    for seed in (7, 8):
        q, cands = small_problem(rng, num_series=40, seed=seed)
        plain = run_method(q, cands, Method.LB_MV)
        for method in (Method.LB_TI, Method.LB_PC, Method.LB_AD):
            out = run_method(q, cands, method)
            assert out.dtw_skipped >= plain.dtw_skipped
            assert out.lb_mv_evals == plain.lb_mv_evals


def test_per_candidate_skip_subset(rng):
    # replay the scan candidate by candidate: the set of indices the envelope
    # bound alone skips must be contained in every cascade's skip set
    from mvdtw import build_envelope, lb_mv, lb_ad

    for seed in (31, 32):
        q, cands = small_problem(rng, num_series=36, seed=seed)
        w = 5
        env = build_envelope(q, w)

        def skip_set(advanced):
            skipped = set()
            d_best = dtw_banded(q, cands[0], w).distance
            for k in range(1, len(cands)):
                b1 = lb_mv(cands[k], env)
                if b1.value >= d_best:
                    skipped.add(k)
                    continue
                if advanced is not None and b1.value > 0.1 * d_best:
                    b2 = lb_ad(q, cands[k], w)
                    if b2.value >= d_best:
                        skipped.add(k)
                        continue
                # a DTW that does not stop early at d_best ends at or below it
                d_best = min(d_best, dtw_banded(q, cands[k], w).distance)
            return skipped

        plain = skip_set(None)
        cascade = skip_set(Method.LB_AD)
        assert plain <= cascade
        out_plain = run_method(q, cands, Method.LB_MV)
        out_cascade = run_method(q, cands, Method.LB_AD, trigger_ti=0.1)
        assert out_plain.dtw_skipped == len(plain)
        assert out_cascade.dtw_skipped == len(cascade)


def test_step_one_skip_and_trigger_band():
    q = np.zeros((4, 1))
    c0 = np.ones((4, 1))                          # establishes d_best = 4
    c_far = np.full((4, 1), 10.0)                 # lb_mv = 40 >= d_best: skipped, no advanced eval
    c_mid = np.array([[1.0], [1.0], [0.0], [0.0]])  # lb_mv = 2, ratio 0.5: advanced eval fires
    c_low = np.array([[0.0], [0.0], [0.0], [0.1]])  # lb_mv = 0.1, ratio 0.05 <= 0.1: straight to DTW
    params = SearchParams(window=1, method=Method.LB_TI, trigger_ti=0.1)

    out = nn_search(q, [c0, c_far], params)
    assert out.dtw_skipped == 1 and out.advanced_lb_evals == 0

    out = nn_search(q, [c0, c_far, c_mid, c_low], params)
    assert out.dtw_skipped == 1
    assert out.advanced_lb_evals == 1          # only c_mid lands in the trigger band
    assert out.dtw_computed == 3               # c0, c_mid, c_low
    assert out.best_distance == pytest.approx(0.1)
    assert out.best_index == 3


def test_empty_candidates_rejected(rng):
    with pytest.raises(InvalidInputError):
        nn_search(rng.normal(size=(5, 2)), [], SearchParams(window=2))


@pytest.mark.parametrize("method", [Method.LB_TI, Method.LB_PC, Method.LB_AD, Method.TC_DTW])
def test_empty_selection_sample_rejected(rng, method):
    # tuning and bound selection share one check, for either side of the sample
    q, cands = small_problem(rng, num_series=4)
    params = SearchParams(window=2, method=method)
    for queries, candidates in (([], cands), ([q], [])):
        with pytest.raises(InvalidInputError, match="selection sample is empty"):
            tune_params(queries, candidates, params)
        with pytest.raises(InvalidInputError, match="selection sample is empty"):
            tc_dtw_select(queries, candidates, params)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_bad_seed_rejected(rng, seed):
    q, cands = small_problem(rng, num_series=4)
    with pytest.raises(InvalidInputError, match="seed"):
        selection_sample([q], cands, seed)
    with pytest.raises(InvalidInputError, match="seed"):
        tune_params([q], cands, SearchParams(window=2, method=Method.LB_TI), seed=seed)


def test_unresolved_tc_dtw_rejected(rng):
    q, cands = small_problem(rng, num_series=4)
    with pytest.raises(InvalidInputError):
        nn_search(q, cands, SearchParams(window=3, method=Method.TC_DTW))
    # `advanced` resolves tc_dtw only; any other method rejects it
    for method in (m for m in Method if m != Method.TC_DTW):
        with pytest.raises(InvalidInputError, match="advanced"):
            nn_search(q, cands, SearchParams(window=2, method=method), advanced=Method.LB_PC)


def test_counters_deterministic_and_timers_sane(rng):
    q, cands = small_problem(rng, num_series=30, seed=11)
    runs = [run_method(q, cands, Method.LB_PC) for _ in range(2)]
    a, b = runs
    for fieldname in ("best_index", "best_distance", "dtw_computed", "dtw_skipped",
                      "lb_mv_evals", "advanced_lb_evals", "abandon_count", "work"):
        assert getattr(a, fieldname) == getattr(b, fieldname)
    for out in runs:
        assert out.lb_time >= 0.0 and out.dtw_time >= 0.0
        assert out.lb_time + out.dtw_time <= out.total_time


def test_tc_dtw_select_prefers_clustering_on_clustered_data():
    ds = clustered_dataset(24, 30, 2, seed=5)
    series = ds.series_list()
    queries, cands = series[:4], series[4:]
    params = SearchParams(window=5, method=Method.TC_DTW)
    assert tc_dtw_select(queries, cands, params) == Method.LB_PC


def test_tc_dtw_select_tie_breaks_to_lb_pc(monkeypatch):
    import mvdtw.search as search

    monkeypatch.setattr(search, "_run_sample", lambda *a, **k: 123.0)
    params = SearchParams(window=3, method=Method.TC_DTW)
    assert tc_dtw_select([np.zeros((4, 1))], [np.zeros((4, 1))], params) == Method.LB_PC


def test_tc_dtw_select_single_candidate_deterministic(rng):
    # a one-candidate sample gives either method trivially; the pick must
    # still be deterministic
    q, cands = small_problem(rng, num_series=2)
    params = SearchParams(window=3, method=Method.TC_DTW)
    picks = {tc_dtw_select([q], cands[:1], params) for _ in range(3)}
    assert len(picks) == 1
    assert picks.pop() in (Method.LB_TI, Method.LB_PC)


def test_tune_grid_sizes(rng):
    q, cands = small_problem(rng, num_series=12, seed=13)
    queries = [q]
    for method, expected_runs in ((Method.TC_DTW, 7), (Method.LB_TI, 3),
                                  (Method.LB_PC, 4), (Method.LB_AD, 3),
                                  (Method.LB_MV, 0), (Method.NONE, 0)):
        log = []
        tuned = tune_params(queries, cands, SearchParams(window=4, method=method),
                            seed=0, log=log)
        assert len(log) == expected_runs
        assert tuned.refresh_period == 5 and tuned.max_boxes == 6 and tuned.group_width == 6


def test_tuned_params_do_not_change_answers(rng):
    ds = random_walk_dataset(20, 20, 2, seed=23)
    series = ds.series_list()
    queries, cands = series[:3], series[3:]
    base = [nn_search(q, cands, SearchParams(window=4, method=Method.NONE)) for q in queries]
    tuned = tune_params(queries, cands, SearchParams(window=4, method=Method.TC_DTW), seed=1)
    choice = tc_dtw_select(queries, cands, tuned)
    for q, ref in zip(queries, base):
        out = nn_search(q, cands, tuned, advanced=choice)
        assert (out.best_index, out.best_distance) == (ref.best_index, ref.best_distance)


def test_high_dims_clustering_returns_the_plain_answer():
    # at D=40 a window's levels ** D cell ids overflow int64
    series = random_walk_dataset(16, 24, 40, seed=5).series_list()
    queries, cands = series[:2], series[2:]
    tuned = tune_params(queries, cands, SearchParams(window=4, method=Method.TC_DTW), seed=1)
    choice = tc_dtw_select(queries, cands, tuned)
    runs = [(SearchParams(window=4, method=Method.LB_PC, quant_levels=3), None),
            (tuned, choice), (replace(tuned, quant_levels=3), Method.LB_PC)]
    for q in queries:
        ref = nn_search(q, cands, SearchParams(window=4, method=Method.NONE))
        for params, advanced in runs:
            out = nn_search(q, cands, params, advanced=advanced)
            assert (out.best_index, out.best_distance) == (ref.best_index, ref.best_distance)


def fresh_cost(queries, cands, params, dim_range):
    # one nn_search per query and configuration, summed in query order
    cost = 0.0
    for q in queries:
        cost += nn_search(q, cands, params, dim_range=dim_range).work
    return cost


def assert_tuning_as_fresh_searches(queries, cands, window, seed, dim_range):
    """tune_params and tc_dtw_select sweep each sample query once; their log
    costs, tuned parameters and picks must be those of fresh searches."""
    sq, sc = selection_sample(queries, cands, seed)
    for method in (Method.LB_TI, Method.LB_PC, Method.LB_AD, Method.TC_DTW):
        params = SearchParams(window=window, method=method)
        log = []
        tuned = tune_params(queries, cands, params, seed=seed, dim_range=dim_range, log=log)
        assert log
        best = {}
        for adv, p, cost in log:
            want = fresh_cost(sq, sc, replace(p, method=adv), dim_range)
            assert cost.hex() == want.hex(), (method, adv, p)
            if adv not in best or want < best[adv][1]:
                best[adv] = (p, want)
        want_tuned = params
        for adv, (p, _) in best.items():
            if adv == Method.LB_PC:
                want_tuned = replace(want_tuned, trigger_pc=p.trigger_pc, quant_levels=p.quant_levels)
            else:
                want_tuned = replace(want_tuned, trigger_ti=p.trigger_ti)
        assert tuned == want_tuned, method
        if method == Method.TC_DTW:
            cost_ti, cost_pc = (fresh_cost(sq, sc, replace(tuned, method=m), dim_range)
                                for m in (Method.LB_TI, Method.LB_PC))
            want_pick = Method.LB_TI if cost_ti < cost_pc else Method.LB_PC
            assert tc_dtw_select(sq, sc, tuned, dim_range=dim_range) == want_pick


@pytest.mark.parametrize("make, num_series, n, dims, window", [
    (clustered_dataset, 40, 20, 3, 4),
    (iid_noise_dataset, 40, 20, 3, 4),
    (smooth_walk_dataset, 40, 30, 3, 6),
    (smooth_walk_dataset, 40, 20, 1, 3),   # univariate
    (clustered_dataset, 40, 20, 2, 0),     # window 0
    (random_walk_dataset, 2, 12, 2, 3),    # one query, one candidate
])
def test_sample_scans_reused_as_fresh_searches(make, num_series, n, dims, window):
    ds = make(num_series, n, dims, seed=17)
    series = ds.series_list()
    if dims == 1:  # plain 1-D arrays, as a univariate caller passes them
        series = [s[:, 0] for s in series]
    half = num_series // 2
    for seed, dim_range in ((0, ds.dim_ranges), (3, None)):
        assert_tuning_as_fresh_searches(series[:half], series[half:], window, seed, dim_range)


@pytest.mark.parametrize("bad", [np.full((8, 2), np.nan), np.zeros((9, 2))],
                         ids=["nan", "shape"])
def test_sample_scans_reject_a_bad_candidate_as_nn_search(bad):
    g = np.random.default_rng(9)
    queries = [g.normal(size=(8, 2)) for _ in range(3)]
    cands = [g.normal(size=(8, 2)) for _ in range(4)]
    cands.insert(2, bad)
    with pytest.raises(InvalidInputError) as fresh:
        nn_search(queries[0], cands, SearchParams(window=2, method=Method.LB_TI))
    assert "candidate 2" in str(fresh.value)
    for method in (Method.LB_TI, Method.LB_PC, Method.LB_AD, Method.TC_DTW):
        with pytest.raises(InvalidInputError) as tuned:
            tune_params(queries, cands, SearchParams(window=2, method=method))
        assert str(tuned.value) == str(fresh.value)
    with pytest.raises(InvalidInputError) as picked:
        tc_dtw_select(queries, cands, SearchParams(window=2, method=Method.TC_DTW))
    assert str(picked.value) == str(fresh.value)


COUNTER_FIELDS = ("best_index", "best_distance", "dtw_computed", "dtw_skipped",
                  "lb_mv_evals", "advanced_lb_evals", "abandon_count", "work")
CASCADES = [(m, None) for m in Method if m != Method.TC_DTW] + [
    (Method.TC_DTW, Method.LB_TI), (Method.TC_DTW, Method.LB_PC)]


def search_case(seed, kind, count, n, dims):
    """A query and its candidates: random walks, iid noise, values near
    1e160 (every nonzero squared difference overflows to +inf), random walks
    that all jump by 1e160 at one index (finite distances, but the triangle
    bound's totals turn NaN from inf - inf), plateaus (many equal point
    costs), or constant series and repeated candidates (ties)."""
    g = np.random.default_rng(seed)
    if kind == "walk":
        data = np.cumsum(g.normal(size=(count + 1, n, dims)), axis=1)
    elif kind == "iid":
        data = g.normal(size=(count + 1, n, dims))
    elif kind == "overflow":
        data = np.round(g.normal(size=(count + 1, n, dims))) * 1e160
    elif kind == "jump":
        data = np.cumsum(g.normal(size=(count + 1, n, dims)), axis=1)
        data[:, g.integers(0, n):] += 1e160
    elif kind == "plateau":
        steps = g.normal(size=(count + 1, n, dims)) * (g.random((count + 1, n, 1)) < 0.3)
        data = np.cumsum(steps, axis=1)
    else:  # constant series drawn from a few levels, so whole candidates repeat
        levels = g.integers(0, 3, size=(count + 1, 1, dims)).astype(float)
        data = np.broadcast_to(levels, (count + 1, n, dims)).copy()
    return data[0], list(data[1:])


def assert_matches_reference(q, cands, window, trigger):
    from oracles import reference_nn_search

    for method, advanced in CASCADES:
        params = SearchParams(window=window, method=method, trigger_ti=trigger, trigger_pc=trigger)
        got = nn_search(q, cands, params, advanced=advanced)
        want = reference_nn_search(q, cands, params, advanced=advanced)
        for name in COUNTER_FIELDS:
            assert getattr(got, name) == getattr(want, name), (method, advanced, name)
        # the sweep computes every compared candidate, and `none` compares all
        assert got.dtw_computed <= got.dtw_swept <= len(cands)
        if method == Method.NONE:
            assert got.dtw_swept == len(cands)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["walk", "iid", "overflow", "jump", "plateau", "constant"]),
    count=st.integers(1, 12),
    n=st.integers(1, 16),
    dims=st.sampled_from([*range(1, 11), 24]),
    extra_window=st.integers(0, 19),
    trigger=st.sampled_from([0.05, 0.5, 0.95]),
)
def test_counters_match_reference_cascade(seed, kind, count, n, dims, extra_window, trigger):
    # window ranges over [0, n + 3]: W >= n is capped at n - 1
    q, cands = search_case(seed, kind, count, n, dims)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_matches_reference(q, cands, extra_window % (n + 4), trigger)


def test_sweep_missing_a_compared_candidate_raises(monkeypatch):
    # With every diagonal cost forced to zero, the upper bounds claim that
    # no candidate after the first can need a DTW, so the sweep computes only
    # candidate 0 and the scan's decisions cannot be read from it.
    import mvdtw.search as search

    monkeypatch.setattr(search, "point_costs", lambda a, b: np.zeros(np.broadcast_shapes(a.shape, b.shape)[1:]))
    for seed, kind in ((1, "walk"), (2, "iid"), (3, "plateau")):
        q, cands = search_case(seed, kind, 10, 14, 3)
        for method, advanced in CASCADES:
            if method == Method.NONE:
                continue  # compares every candidate, with no upper bounds
            params = SearchParams(window=4, method=method, trigger_ti=0.5, trigger_pc=0.5)
            with pytest.raises(RuntimeError, match="sweep missed"):
                nn_search(q, cands, params, advanced=advanced)


def test_overflowing_costs_match_reference(monkeypatch):
    # finite inputs whose differences overflow: candidate 0's envelope bound
    # and diagonal cost are both +inf, and the sweep still computes it
    import oracles

    q = np.array([[1e308], [1e308], [0.0]])
    cands = [np.array([[-1e308], [-1e308], [0.0]]), np.zeros((3, 1)), np.full((3, 1), 1.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert_matches_reference(q, cands, 1, 0.5)
        # lb_ti totals turn NaN here, and the scan prunes a candidate at the
        # first prefix above d_best, which a rule on totals alone would miss
        q, cands = search_case(27612182, "jump", 6, 11, 1)
        assert_matches_reference(q, cands, 2, 0.5)
        params = SearchParams(window=2, method=Method.LB_TI, trigger_ti=0.5)
        want = oracles.reference_nn_search(q, cands, params)
        monkeypatch.setattr(oracles, "sum_with_abandon", lambda terms, d: float(terms.cumsum()[-1]))
        assert oracles.reference_nn_search(q, cands, params).dtw_skipped < want.dtw_skipped


@pytest.mark.parametrize("dim_range", [np.ones(2), [1.0, np.nan, 1.0], "abc"],
                         ids=["short", "nan", "text"])
def test_bad_dim_range_rejected_by_every_cascade(dim_range):
    # checked at the boundary, also where no clustering bound reads it
    q, cands = search_case(3, "walk", 4, 6, 3)
    for method, advanced in CASCADES:
        with pytest.raises(InvalidInputError, match="dim_range"):
            nn_search(q, cands, SearchParams(window=2, method=method), advanced=advanced,
                      dim_range=dim_range)


def test_one_candidate_blocks_change_nothing(monkeypatch):
    # the batched stages cut the plane set into blocks of candidates; one
    # candidate per block must give the bits of one block for all
    import mvdtw.search as search

    for seed, kind in ((1, "walk"), (2, "plateau"), (3, "iid")):
        q, cands = search_case(seed, kind, 12, 14, 3)
        for method, advanced in CASCADES:
            params = SearchParams(window=4, method=method, trigger_ti=0.5, trigger_pc=0.5)
            whole = nn_search(q, cands, params, advanced=advanced)
            with monkeypatch.context() as mp:
                mp.setattr(search, "BLOCK_FLOATS", 1)
                blocks = nn_search(q, cands, params, advanced=advanced)
            for name in (*COUNTER_FIELDS, "dtw_swept"):
                assert getattr(blocks, name) == getattr(whole, name), (method, advanced, name)
            assert blocks.work.hex() == whole.work.hex()


@pytest.mark.parametrize("bad", [
    np.zeros((7, 2)),                       # one point too many
    np.zeros((6, 3)),                       # one dimension too many
    np.zeros(6),                            # univariate
    np.array([[0.0, 1.0]] * 5 + [[np.nan, 0.0]]),
    np.array([[0.0, 1.0]] * 5 + [[0.0, np.inf]]),
    [[0.0, 1.0], [2.0]],                    # ragged
    "not a series",
])
def test_bad_last_candidate_rejected_at_the_boundary(bad):
    # the bad candidate sits first, in the middle and last
    g = np.random.default_rng(5)
    q = g.normal(size=(6, 2))
    good = [g.normal(size=(6, 2)) for _ in range(5)]
    for k in (0, 2, 5):
        cands = good[:k] + [bad] + good[k:]
        for method, advanced in CASCADES:
            with pytest.raises(InvalidInputError, match=f"candidate {k}"):
                nn_search(q, cands, SearchParams(window=2, method=method), advanced=advanced)


def test_candidates_stack_as_one_by_one():
    # One conversion of the whole candidate set must give the bytes of the
    # per-candidate stack, and never write into a caller's array.
    from mvdtw.core import as_array
    from mvdtw.search import _stack_candidates

    g = np.random.default_rng(11)
    block = g.normal(size=(6, 9, 2))
    uni = g.normal(size=(6, 9))
    cases = [
        (g.normal(size=(9, 2)), list(block)),               # views into one array
        (g.normal(size=(9, 2)), block),                     # one (C, n, D) array
        (g.normal(size=9), list(uni)),                      # univariate, 1-D
        (g.normal(size=9), uni),
    ]
    for q, cands in cases:
        before = [np.array(as_array(c)) for c in cands]
        want = np.stack(before).transpose(2, 1, 0)  # (D, n, C) planes
        got = _stack_candidates(cands, before[0].shape)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for method, advanced in CASCADES:
            params = SearchParams(window=2, method=method, trigger_ti=0.5, trigger_pc=0.5)
            out = nn_search(q, cands, params, advanced=advanced)
            ref = nn_search(q, before, params, advanced=advanced)
            assert [getattr(out, f) for f in COUNTER_FIELDS] == \
                [getattr(ref, f) for f in COUNTER_FIELDS]
        assert all(np.array_equal(as_array(c), b) for c, b in zip(cands, before))
