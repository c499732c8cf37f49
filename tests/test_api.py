"""The public surface the benchmark under `perfbench/` is written against.

The benchmark is frozen between its own revisions, so every name and keyword
form it uses must keep working when the library is trimmed.  These tests run
each such call once on a tiny instance.
"""

import sys

import mvdtw
from mvdtw import synth

PUBLIC = [
    "BoundResult", "BoxGrouping", "Dataset", "DtwResult", "InvalidInputError", "Method",
    "NeighborDistances", "NnOutcome", "ParseError", "RawDataset", "SearchParams",
    "build_box_sets", "build_envelope", "dtw_banded", "lb_ad", "lb_mv", "lb_pc", "lb_ti",
    "neighbor_steps", "nn_search", "normalize", "parse_native", "parse_ts_subset", "split",
    "tc_dtw_select", "truncate_dims", "tune_params", "write_native",
]

# Names the benchmark's tracer rebinds on mvdtw.search (the search's layers)
# that the search still binds: it runs the bounds through their stacked
# kernels, not the per-pair lb_mv, lb_ti, lb_pc and lb_ad.  So the tracer's
# prune count, read from an `abandon_above` keyword of a bound call, meets no
# call, and the bounds need not take the keyword.
SEARCH_LAYERS = ("build_envelope", "build_box_sets", "neighbor_steps")


def test_public_names():
    assert sorted(mvdtw.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert hasattr(mvdtw, name), name


def test_search_binds_the_traced_layers():
    search = sys.modules["mvdtw.search"]
    for name in SEARCH_LAYERS:
        assert getattr(search, name) is getattr(mvdtw, name), name


def test_benchmark_calls_run(tmp_path):
    # the benchmark's set-up, search and pair-timing calls, keyword for keyword:
    # BoundResult.value, DtwResult.distance, lb_ti's refresh_period= and
    # neighbor=, and NeighborDistances(query_steps=)
    path = tmp_path / "tiny.mts"
    for family in ("iid_noise_dataset", "smooth_walk_dataset", "clustered_dataset"):
        mvdtw.write_native(getattr(synth, family)(12, 10, 2, 42), path)
    ds = mvdtw.normalize(mvdtw.parse_native(path))
    queries, candidates = [d.series_list() for d in mvdtw.split(ds, 0.5, 42)]
    window = 3
    params = {"none": mvdtw.SearchParams(window=window, method="none")}
    log: list = []
    for m in ("lb_ti", "tc_dtw", "lb_ad"):
        params[m] = mvdtw.tune_params(
            queries, candidates, mvdtw.SearchParams(window=window, method=m),
            seed=42, dim_range=ds.dim_ranges, log=log,
        )
    assert len(log) == 3 + 7 + 3
    advanced = mvdtw.tc_dtw_select(queries[:2], candidates[:3], params["tc_dtw"],
                                   dim_range=ds.dim_ranges)
    assert advanced in (mvdtw.Method.LB_TI, mvdtw.Method.LB_PC)
    for m in ("none", "lb_ti", "tc_dtw", "lb_ad"):
        out = mvdtw.nn_search(queries[0], candidates, params[m],
                              advanced=advanced if m == "tc_dtw" else None,
                              dim_range=ds.dim_ranges)
        for name in ("best_index", "best_distance", "dtw_computed", "dtw_skipped",
                     "lb_mv_evals", "advanced_lb_evals", "abandon_count", "work"):
            assert hasattr(out, name)

    p = mvdtw.SearchParams(window=window)
    q, c = queries[0], candidates[0]
    w = p.effective_window(q.shape[0])
    env = mvdtw.build_envelope(q, w)
    nd = mvdtw.NeighborDistances(query_steps=mvdtw.neighbor_steps(q))
    boxes = mvdtw.build_box_sets(q, w, p.group_width, p.quant_levels, p.max_boxes,
                                 p.min_cell_frac, ds.dim_ranges)
    exact = mvdtw.dtw_banded(q, c, w)
    assert isinstance(exact.distance, float)
    bounds = [
        mvdtw.lb_mv(c, env),
        mvdtw.lb_ti(q, c, w, refresh_period=p.refresh_period, neighbor=nd),
        mvdtw.lb_pc(c, boxes),
        mvdtw.lb_ad(q, c, w),
    ]
    # the bounds return their totals, dtw_banded its full distance
    for b in bounds:
        assert isinstance(b, mvdtw.BoundResult)
        assert b.value <= exact.distance
