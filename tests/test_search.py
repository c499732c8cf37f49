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
    # `advanced` resolves tc_dtw only, also to the plain sweep (NONE); any
    # other method rejects it
    for method in (m for m in Method if m != Method.TC_DTW):
        for advanced in (Method.LB_PC, Method.NONE):
            with pytest.raises(InvalidInputError, match="advanced"):
                nn_search(q, cands, SearchParams(window=2, method=method), advanced=advanced)


@pytest.mark.parametrize("make, num_series, n, dims, window", [
    (iid_noise_dataset, 30, 20, 3, 4),
    (clustered_dataset, 30, 20, 3, 4),
    (smooth_walk_dataset, 30, 30, 3, 6),
    (smooth_walk_dataset, 30, 20, 1, 3),   # univariate
    (clustered_dataset, 30, 20, 2, 0),     # window 0
])
def test_tc_dtw_resolved_to_none_is_the_none_search(make, num_series, n, dims, window):
    # tc_dtw resolved to the plain sweep runs no envelope, bound or
    # diagonal-path cost, and gives `none`'s outcome, counter for counter
    import mvdtw.search as search

    ds = make(num_series, n, dims, seed=21)
    series = ds.series_list()
    if dims == 1:  # plain 1-D arrays, as a univariate caller passes them
        series = [s[:, 0] for s in series]
    queries, cands = series[:4], series[4:]
    tuned = tune_params(queries, cands, SearchParams(window=window, method=Method.TC_DTW),
                        seed=2, dim_range=ds.dim_ranges)
    called = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("build_envelope", "lb_ad_terms", "lb_pc_terms", "lb_ti_terms"):
            mp.setattr(search, name, lambda *a, name=name, **k: called.append(name))
        plain = [nn_search(q, cands, tuned, advanced=Method.NONE, dim_range=ds.dim_ranges)
                 for q in queries]
    assert called == []
    for q, got in zip(queries, plain):
        want = nn_search(q, cands, SearchParams(window=window, method=Method.NONE),
                         dim_range=ds.dim_ranges)
        for name in (*COUNTER_FIELDS, "dtw_swept"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.work.hex() == want.work.hex()
        assert got.dtw_swept == got.dtw_computed == len(cands)


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
    # the clustering bound costs less than the triangle bound here, and the
    # pick is the cheapest of the three options the log prices
    ds = clustered_dataset(24, 30, 2, seed=5)
    series = ds.series_list()
    queries, cands = series[:4], series[4:]
    params = SearchParams(window=5, method=Method.TC_DTW)
    log = []
    pick = tc_dtw_select(queries, cands, params, log=log)
    costs = {adv: cost for adv, p, cost in log}
    assert list(costs) == [Method.LB_PC, Method.LB_TI, Method.NONE]
    assert all(p == params for _, p, _ in log)
    assert costs[Method.LB_PC] < costs[Method.LB_TI]
    assert pick == min(costs, key=costs.get)


def test_tc_dtw_select_tie_breaks_to_lb_pc(monkeypatch):
    import mvdtw.search as search

    monkeypatch.setattr(search, "_finish", lambda *a: search.NnOutcome(0, 0.0, work=123.0))
    params = SearchParams(window=3, method=Method.TC_DTW)
    assert tc_dtw_select([np.zeros((4, 1))], [np.zeros((4, 1))], params) == Method.LB_PC


def test_tc_dtw_select_single_candidate_deterministic(rng):
    # with one candidate no bound can skip, so the plain sweep, which pays
    # for no envelope or bound, is the deterministic pick
    q, cands = small_problem(rng, num_series=2)
    params = SearchParams(window=3, method=Method.TC_DTW)
    picks = {tc_dtw_select([q], cands[:1], params) for _ in range(3)}
    assert len(picks) == 1
    assert picks.pop() == Method.NONE


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


GRIDS = ("trigger_ti", "trigger_pc", "quant_levels")


def assert_tuning_as_fresh_searches(queries, cands, window, seed, dim_range):
    """tune_params and tc_dtw_select sweep the sample queries together and
    run each bound once per candidate and configuration; their log costs,
    tuned parameters and picks must be those of fresh searches, whatever
    order the grid is evaluated in (given, reversed, shuffled)."""
    import random

    import mvdtw.search as search

    sq, sc = selection_sample(queries, cands, seed)
    fresh = {}
    given = [search._GRID[name] for name in GRIDS]
    shuffle = random.Random(seed)
    for order in (given, [grid[::-1] for grid in given],
                  [tuple(shuffle.sample(grid, len(grid))) for grid in given]):
        with pytest.MonkeyPatch.context() as mp:
            for name, grid in zip(GRIDS, order):
                mp.setitem(search._GRID, name, grid)
            for method in (Method.LB_TI, Method.LB_PC, Method.LB_AD, Method.TC_DTW):
                params = SearchParams(window=window, method=method)
                log = []
                tuned = tune_params(queries, cands, params, seed=seed, dim_range=dim_range, log=log)
                assert log
                best = {}
                for adv, p, cost in log:
                    key = replace(p, method=adv)
                    if key not in fresh:
                        fresh[key] = fresh_cost(sq, sc, key, dim_range)
                    want = fresh[key]
                    assert cost.hex() == want.hex(), (order, method, adv, p)
                    if adv not in best or want < best[adv][1]:
                        best[adv] = (p, want)
                want_tuned = params
                for adv, (p, _) in best.items():
                    if adv == Method.LB_PC:
                        want_tuned = replace(want_tuned, trigger_pc=p.trigger_pc,
                                             quant_levels=p.quant_levels)
                    else:
                        want_tuned = replace(want_tuned, trigger_ti=p.trigger_ti)
                assert tuned == want_tuned, (order, method)
                if method == Method.TC_DTW:
                    # the first of the cheapest: LB_PC, LB_TI, then the plain sweep
                    costs = {m: fresh_cost(sq, sc, replace(tuned, method=m), dim_range)
                             for m in (Method.LB_PC, Method.LB_TI, Method.NONE)}
                    want_pick = min(costs, key=costs.get)
                    log = []
                    assert tc_dtw_select(sq, sc, tuned, dim_range=dim_range, log=log) == want_pick
                    assert [(adv, cost.hex()) for adv, _, cost in log] == \
                        [(m, cost.hex()) for m, cost in costs.items()]


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


@pytest.mark.parametrize("make, num_series, queries, n, dims, window", [
    (clustered_dataset, 31, 8, 20, 3, 4),
    (smooth_walk_dataset, 20, 6, 30, 3, 6),
    (smooth_walk_dataset, 12, 4, 20, 1, 3),    # univariate
    (clustered_dataset, 12, 5, 20, 2, 0),      # window 0
    (random_walk_dataset, 9, 1, 12, 2, 3),     # one query
    (random_walk_dataset, 5, 4, 12, 2, 3),     # one candidate
])
@pytest.mark.parametrize("budget", ["default", 1], ids=["one-sweep", "count-capped-sweeps"])
def test_sample_scans_equal_a_scan_per_query(make, num_series, queries, n, dims, window, budget):
    # _sample_scans sweeps every query's swept candidates in dtw_rows calls
    # of at most max(C, BLOCK_FLOATS // (n D)) columns; a one-float budget
    # caps a call at the candidate count, so a query's columns may span two
    # calls.  Each query's scan must be the one a scan of that query alone
    # gives, and finish alike
    import mvdtw.search as search
    from mvdtw.dtw import dtw_rows

    ds = make(num_series, n, dims, seed=29)
    series = ds.series_list()
    if dims == 1:  # plain 1-D arrays, as a univariate caller passes them
        series = [s[:, 0] for s in series]
    qs, cands = series[:queries], series[queries:]
    params = SearchParams(window=window)
    calls = []

    def counted(qplanes, planes, w):
        calls.append((qplanes.shape[-1], planes.shape[-1]))
        return dtw_rows(qplanes, planes, w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "dtw_rows", counted)
        if budget != "default":
            mp.setattr(search, "BLOCK_FLOATS", budget)
        scans = search._sample_scans(qs, cands, params, ds.dim_ranges)
    assert len(scans) == queries
    # The calls' columns: consecutive blocks of `cap`, the last one shorter
    cap = max(len(cands), (search.BLOCK_FLOATS if budget == "default" else budget) // (n * dims))
    ends = np.cumsum([scan.outcome.dtw_swept for scan in scans])
    total = int(ends[-1])
    assert [cols for _, cols in calls] == [min(cap, total - b) for b in range(0, total, cap)]
    # one query's planes broadcast over every column, several queries' one per column
    assert all(qcols == (1 if queries == 1 else cols) for qcols, cols in calls)
    if budget == "default":
        assert len(calls) == 1
    elif queries > 1 and len(cands) > 1:  # some query's columns span two calls
        assert any(a // cap < (b - 1) // cap for a, b in zip([0, *ends[:-1]], ends))
    for q, batched in zip(qs, scans):
        alone, = search._scan([q], cands, params, ds.dim_ranges, True)
        for name in ("lb_totals", "distances", "swept", "met"):
            a, b = getattr(batched, name), getattr(alone, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert batched.outcome.lb_time + batched.outcome.dtw_time <= batched.outcome.total_time
        configs = [(replace(params, method=m), None)
                   for m in (Method.LB_TI, Method.LB_PC, Method.LB_AD)]
        configs.append((replace(params, method=Method.TC_DTW, trigger_ti=0.5), Method.LB_TI))
        for p, adv in configs:
            a, b = search._finish(batched, p, adv), search._finish(alone, p, adv)
            for name in (*COUNTER_FIELDS, "dtw_swept"):
                assert getattr(a, name) == getattr(b, name), (p, name)
            assert a.work.hex() == b.work.hex()
            assert a.lb_time + a.dtw_time <= a.total_time


def test_queries_sweeping_every_candidate_between_them_gather_their_columns():
    # Two queries equal to candidate 0 each sweep only it: two columns, as
    # many as candidates, which must still be gathered per query
    import mvdtw.search as search

    g = np.random.default_rng(4)
    cands = [g.normal(size=(10, 2)) for _ in range(2)]
    queries = [cands[0], cands[0].copy()]
    params = SearchParams(window=2, method=Method.LB_MV)
    scans = search._sample_scans(queries, cands, params, None)
    assert [scan.outcome.dtw_swept for scan in scans] == [1, 1]
    for q, scan in zip(queries, scans):
        got, want = search._finish(scan, params, None), nn_search(q, cands, params)
        assert (got.best_index, got.best_distance) == (want.best_index, want.best_distance) == (0, 0.0)


def test_each_configuration_built_once_per_query(monkeypatch):
    # tune_params (every bounded method) and tc_dtw_select build a bound's
    # kernel once per sample query and configuration that triggers it on
    # some candidate, in the order the library runs its grids
    import mvdtw.search as search

    ds = clustered_dataset(40, 20, 3, seed=29)
    series = ds.series_list()
    queries, cands = series[:12], series[12:]
    seed = 5
    sq, sc = selection_sample(queries, cands, seed)
    builds = []
    bound = search._bound

    def counted(*args):
        b = bound(*args)
        return b._replace(build=lambda: builds.append(1) or b.build())

    monkeypatch.setattr(search, "_bound", counted)

    def pairs(configs):
        # (query, configuration) pairs with a triggered candidate, and
        # (query, grid point) pairs, by fresh searches
        triggering, points = set(), 0
        for p in configs:
            key = (p.method, p.quant_levels if p.method == Method.LB_PC else None)
            for qi, q in enumerate(sq):
                if nn_search(q, sc, p, dim_range=ds.dim_ranges).advanced_lb_evals:
                    triggering.add((qi, key))
                    points += 1
        return len(triggering), points

    for method in (Method.LB_TI, Method.LB_PC, Method.LB_AD, Method.TC_DTW):
        builds.clear()
        log = []
        tuned = tune_params(queries, cands, SearchParams(window=4, method=method), seed=seed,
                            dim_range=ds.dim_ranges, log=log)
        built = len(builds)
        want, points = pairs([replace(p, method=adv) for adv, p, _ in log])
        assert built == want and 0 < want < points, method
    builds.clear()
    tc_dtw_select(sq, sc, tuned, dim_range=ds.dim_ranges)
    built = len(builds)
    want, _ = pairs([replace(tuned, method=m) for m in (Method.LB_TI, Method.LB_PC)])
    assert built == want > 0


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
    (Method.TC_DTW, Method.LB_TI), (Method.TC_DTW, Method.LB_PC), (Method.TC_DTW, Method.NONE)]


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
    from oracles import reference_nn_search, reference_swept

    for method, advanced in CASCADES:
        params = SearchParams(window=window, method=method, trigger_ti=trigger, trigger_pc=trigger)
        got = nn_search(q, cands, params, advanced=advanced)
        want = reference_nn_search(q, cands, params, advanced=advanced)
        for name in COUNTER_FIELDS:
            assert getattr(got, name) == getattr(want, name), (method, advanced, name)
        # the sweep computes every compared candidate, and `none` compares all
        assert got.dtw_computed <= got.dtw_swept <= len(cands)
        if Method.NONE in (method, advanced):
            assert got.dtw_swept == len(cands)
        assert got.dtw_swept == reference_swept(q, cands, params, advanced=advanced)


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
    # With every diagonal cost (lb_ad at window 0) forced to zero, the upper
    # bounds claim that no candidate after the first can need a DTW, so the
    # sweep computes only candidate 0 and the scan's decisions cannot be read
    # from it.  The LB_AD bound itself (window 4) keeps its terms.
    import mvdtw.search as search

    lb_ad_terms = search.lb_ad_terms

    def zero_diagonal(qa, planes, w):
        terms = lb_ad_terms(qa, planes, w)
        return np.zeros_like(terms) if w == 0 else terms

    monkeypatch.setattr(search, "lb_ad_terms", zero_diagonal)
    for seed, kind in ((1, "walk"), (2, "iid"), (3, "plateau")):
        q, cands = search_case(seed, kind, 10, 14, 3)
        for method, advanced in CASCADES:
            if Method.NONE in (method, advanced):
                continue  # compares every candidate, with no upper bounds
            params = SearchParams(window=4, method=method, trigger_ti=0.5, trigger_pc=0.5)
            with pytest.raises(RuntimeError, match="sweep missed"):
                nn_search(q, cands, params, advanced=advanced)


def test_lb_pc_and_lb_ad_leave_their_prunes_out_of_the_sweep():
    # LB_PC and LB_AD run before the sweep, so the candidates they prune at
    # the diagonal-path upper bound are never swept; LB_TI runs after it and
    # sweeps what the envelope leaves, as lb_mv does.  Answers and counters
    # stay the one-at-a-time scan's.
    from oracles import reference_nn_search

    ds = clustered_dataset(40, 20, 3, seed=29)
    series = ds.series_list()
    queries, cands = series[:10], series[10:]
    cascades = {"lb_mv": (Method.LB_MV, None), "lb_ti": (Method.LB_TI, None),
                "lb_pc": (Method.LB_PC, None), "lb_ad": (Method.LB_AD, None),
                "tc_dtw(lb_pc)": (Method.TC_DTW, Method.LB_PC)}
    swept = dict.fromkeys(cascades, 0)
    for q in queries:
        lb_mv_swept = None
        for label, (method, advanced) in cascades.items():
            params = SearchParams(window=4, method=method)
            got = nn_search(q, cands, params, advanced=advanced, dim_range=ds.dim_ranges)
            want = reference_nn_search(q, cands, params, advanced=advanced,
                                       dim_range=ds.dim_ranges)
            for name in COUNTER_FIELDS:
                assert getattr(got, name) == getattr(want, name), (label, name)
            assert got.dtw_computed <= got.dtw_swept
            lb_mv_swept = got.dtw_swept if lb_mv_swept is None else lb_mv_swept
            assert got.dtw_swept <= lb_mv_swept, label
            swept[label] += got.dtw_swept
    assert swept["lb_ti"] == swept["lb_mv"]
    for label in ("lb_pc", "lb_ad", "tc_dtw(lb_pc)"):
        assert swept[label] < swept["lb_mv"], (label, swept)


def test_presweep_bound_built_once_and_each_candidate_evaluated_once(monkeypatch):
    # LB_PC evaluates the candidates of its band before the sweep and the
    # triggered ones left after it: the box sets are built once per search,
    # and no candidate reaches the bound twice
    import mvdtw.search as search

    ds = clustered_dataset(40, 20, 3, seed=29)
    series = ds.series_list()
    queries, cands = series[:20], series[20:]
    stack = np.stack(cands)  # (C, n, D)
    built, evaluated = [], []
    build_box_sets, lb_pc_terms = search.build_box_sets, search.lb_pc_terms

    def counted_build(*args):
        built.append(build_box_sets(*args))
        return built[-1]

    def counted_terms(planes, grouping):
        if any(grouping is g for g in built):  # not the envelope
            evaluated.append([int(np.flatnonzero((stack == c).all(axis=(1, 2)))[0])
                              for c in planes.transpose(2, 1, 0)])
        return lb_pc_terms(planes, grouping)

    monkeypatch.setattr(search, "build_box_sets", counted_build)
    monkeypatch.setattr(search, "lb_pc_terms", counted_terms)
    both = 0
    for trigger in (0.1, 0.5, 0.9):
        for method, advanced in ((Method.LB_PC, None), (Method.TC_DTW, Method.LB_PC)):
            params = SearchParams(window=4, method=method, trigger_pc=trigger)
            for q in queries:
                built.clear()
                evaluated.clear()
                out = nn_search(q, cands, params, advanced=advanced, dim_range=ds.dim_ranges)
                assert len(built) == (1 if evaluated else 0)
                flat = [k for call in evaluated for k in call]
                assert len(flat) == len(set(flat)) >= out.advanced_lb_evals
                both += len(evaluated) == 2
    assert both > 0  # some searches evaluated the bound after the sweep too


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
    # with a one-float budget in every module that reads it, the sweep's
    # point costs run one anti-diagonal a chunk and every bound kernel one
    # row (or P-row block) a chunk; that must give the bits of the default
    # budget, under which each runs in one piece at these sizes
    import sys

    modules = [sys.modules[f"mvdtw.{name}"] for name in ("search", "dtw", "lb_pc", "lb_mv", "lb_ti")]
    for seed, kind in ((1, "walk"), (2, "plateau"), (3, "iid")):
        q, cands = search_case(seed, kind, 12, 14, 3)
        for method, advanced in CASCADES:
            params = SearchParams(window=4, method=method, trigger_ti=0.5, trigger_pc=0.5)
            whole = nn_search(q, cands, params, advanced=advanced)
            with monkeypatch.context() as mp:
                for module in modules:
                    mp.setattr(module, "BLOCK_FLOATS", 1)
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


def test_first_bad_candidate_named_in_order():
    # a non-finite candidate before a misshapen one is the one named
    g = np.random.default_rng(6)
    q = g.normal(size=(6, 2))
    good = [g.normal(size=(6, 2)) for _ in range(4)]
    cands = [good[0], np.array([[0.0, np.inf]] * 6), good[1], g.normal(size=(5, 2)), *good[2:]]
    with pytest.raises(InvalidInputError, match="candidate 1: series contains non-finite"):
        nn_search(q, cands, SearchParams(window=2, method=Method.NONE))


def test_nn_search_checks_in_order():
    # with every input bad, the first one still bad is named, in the order
    # query, dim_range, candidates, advanced
    g = np.random.default_rng(8)
    good_q, good_cands = g.normal(size=(6, 2)), [g.normal(size=(6, 2)) for _ in range(3)]
    good = {"query": good_q, "dim_range": None, "candidates": good_cands, "advanced": None}
    bad = {"query": np.full((6, 2), np.nan), "dim_range": [1.0, np.nan],
           "candidates": [good_cands[0], np.zeros((5, 2))], "advanced": Method.LB_PC}
    named = {"query": "^series contains non-finite", "dim_range": "dim_range",
             "candidates": "candidate 1", "advanced": "advanced"}
    args = dict(bad)
    for name in ("query", "dim_range", "candidates", "advanced"):
        with pytest.raises(InvalidInputError, match=named[name]):
            nn_search(args["query"], args["candidates"], SearchParams(window=2, method=Method.LB_TI),
                      advanced=args["advanced"], dim_range=args["dim_range"])
        args[name] = good[name]
    nn_search(args["query"], args["candidates"], SearchParams(window=2, method=Method.LB_TI),
              advanced=args["advanced"], dim_range=args["dim_range"])


def test_verify_bounds_checks_every_query():
    # a later query of another shape than the candidates', and an empty
    # query list, are rejected like any other bad input; the odd query is
    # named by its index, through verify_bounds and tuning alike
    from mvdtw.search import verify_bounds

    g = np.random.default_rng(12)
    cands = [g.normal(size=(6, 2)) for _ in range(4)]
    params = SearchParams(window=2, method=Method.NONE)
    verify_bounds([g.normal(size=(6, 2)) for _ in range(2)], cands, params)
    odd = [g.normal(size=(6, 2)), g.normal(size=(5, 2))]
    message = r"^query 1 has shape \(5, 2\), candidates have \(6, 2\)$"
    with pytest.raises(InvalidInputError, match=message):
        verify_bounds(odd, cands, params)
    with pytest.raises(InvalidInputError, match=message):
        tune_params(odd, cands, SearchParams(window=2, method=Method.TC_DTW))
    with pytest.raises(InvalidInputError, match="query list is empty"):
        verify_bounds([], cands, params)


def test_tuning_names_an_odd_query_by_its_index_in_the_callers_list():
    # tuning draws 8 of these 11 queries, the odd last one among them at
    # sample position 7; the message names the caller's index, 10
    g = np.random.default_rng(13)
    queries = [g.normal(size=(6, 2)) for _ in range(10)] + [g.normal(size=(5, 2))]
    cands = [g.normal(size=(6, 2)) for _ in range(4)]
    drawn, _ = selection_sample(list(enumerate(queries)), cands, 0)
    assert len(drawn) == 8 and drawn[7][0] == 10
    for method in (Method.LB_TI, Method.LB_PC, Method.LB_AD, Method.TC_DTW):
        with pytest.raises(InvalidInputError,
                           match=r"^query 10 has shape \(5, 2\), candidates have \(6, 2\)$"):
            tune_params(queries, cands, SearchParams(window=2, method=method), seed=0)


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
