import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdtw import (
    InvalidInputError,
    build_box_sets,
    build_envelope,
    dtw_banded,
    lb_ad,
    lb_mv,
    lb_pc,
)
from mvdtw.lb_pc import _cap_cells, _grouped_cells

from conftest import random_instance
from oracles import box_set_for_index, expanded_span, naive_box_dist, quantize_cluster


def test_quantize_two_clumps():
    boxes = quantize_cluster([[0.0], [0.1], [0.9], [1.0]], levels=2, max_boxes=6,
                             min_cell_frac=1e-5)
    assert boxes.num_boxes == 2
    assert boxes.los[:, 0].tolist() == [0.0, 0.9]
    assert boxes.his[:, 0].tolist() == [0.1, 1.0]


def test_quantize_single_cell_degenerations(rng):
    pts = rng.normal(size=(10, 3))
    one = quantize_cluster(pts, levels=1, max_boxes=6, min_cell_frac=1e-5)
    assert one.num_boxes == 1
    assert np.array_equal(one.los[0], pts.min(axis=0))
    assert np.array_equal(one.his[0], pts.max(axis=0))
    same = quantize_cluster(np.full((5, 2), 3.25), levels=4, max_boxes=6, min_cell_frac=1e-5)
    assert same.num_boxes == 1
    assert np.all(same.los == 3.25) and np.all(same.his == 3.25)


def test_quantize_merges_trailing_cells():
    # six singleton cells capped at two boxes: the first stays, the rest merge
    pts = [[0.0], [0.2], [0.4], [0.6], [0.8], [1.0]]
    boxes = quantize_cluster(pts, levels=6, max_boxes=2, min_cell_frac=1e-5)
    assert boxes.num_boxes == 2
    assert boxes.los[0, 0] == 0.0 and boxes.his[0, 0] == 0.0
    assert boxes.los[1, 0] == pytest.approx(0.2)
    assert boxes.his[1, 0] == 1.0


def test_quantize_min_cell_guard():
    # second dimension's range is tiny relative to the reference range: unsplit
    pts = np.array([[0.0, 0.0], [1.0, 1e-9], [2.0, 2e-9]])
    boxes = quantize_cluster(pts, levels=3, max_boxes=9, min_cell_frac=1e-5,
                             dim_range=np.array([2.0, 2.0]))
    assert boxes.num_boxes == 3  # split only along dimension 0


def test_quantize_errors():
    with pytest.raises(InvalidInputError):
        quantize_cluster(np.empty((0, 2)), 2, 2, 1e-5)
    with pytest.raises(InvalidInputError):
        quantize_cluster([[1.0]], 0, 2, 1e-5)


def test_quantize_invariants(rng):
    for _ in range(80):
        m = int(rng.integers(1, 30))
        d = int(rng.integers(1, 5))
        pts = rng.normal(size=(m, d)) * rng.choice([0.01, 1.0, 100.0])
        levels = int(rng.integers(1, 5))
        cap = int(rng.integers(1, 7))
        bs = quantize_cluster(pts, levels, cap, 1e-5)
        assert 1 <= bs.num_boxes <= cap
        assert np.all(bs.los <= bs.his)
        # every point is inside at least one box
        for pt in pts:
            inside = np.all((bs.los <= pt) & (pt <= bs.his), axis=1)
            assert inside.any()


def test_expanded_window_spans():
    # stride w, trailing side grows by w-1: interior spans hold 2W + w points
    assert [expanded_span(g, 12, 2, 1) for g in range(12)] == [
        (max(0, i - 2), min(11, i + 2)) for i in range(12)
    ]
    assert [expanded_span(g, 12, 2, 3) for g in range(4)] == [(0, 4), (1, 7), (4, 10), (7, 11)]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    dims=st.integers(1, 6),
    extra_window=st.integers(0, 43),
    group_width=st.integers(1, 8),
    levels=st.integers(1, 4),
    cap=st.integers(1, 8),
    clumped=st.booleans(),
    own_range=st.booleans(),
)
def test_box_sets_match_quantize_cluster(seed, n, dims, extra_window, group_width, levels,
                                         cap, clumped, own_range):
    # the batched build equals quantizing each expanded window on its own,
    # box for box
    window = extra_window % (n + 4)  # W in [0, n + 3]
    g = np.random.default_rng(seed)
    q = g.normal(size=(n, dims))
    if clumped:  # few distinct values: repeated points, empty cells, flat dimensions
        q = np.round(q)
    dim_range = None if own_range else g.uniform(0.0, 3.0, size=dims)
    grouping = build_box_sets(q, window, group_width, levels, cap, 1e-5, dim_range)
    assert_box_sets_match(grouping, q, window, group_width, levels, cap, dim_range)


def assert_box_sets_match(grouping, q, window, group_width, levels, cap, dim_range):
    """Every query index holds, dimension first, the set quantize_cluster
    builds from its expanded window, then slots padded with +inf/-inf."""
    n, dims = q.shape
    ref = q.max(axis=0) - q.min(axis=0) if dim_range is None else dim_range
    assert grouping.lo.shape[:2] == grouping.hi.shape[:2] == (dims, n)
    for gi in range((n - 1) // group_width + 1):
        a, b = expanded_span(gi, n, window, group_width)
        want = quantize_cluster(q[a : b + 1], levels, cap, 1e-5, dim_range=ref)
        k = want.num_boxes
        # exact float equality (a box corner may be -0.0 on one side and 0.0
        # on the other, depending on which point the min/max met first)
        for i in range(gi * group_width, min(n, (gi + 1) * group_width)):
            lo, hi = grouping.lo[:, i].T, grouping.hi[:, i].T
            assert lo[:k].tolist() == want.los.tolist()
            assert hi[:k].tolist() == want.his.tolist()
            assert np.all(lo[k:] == np.inf)
            assert np.all(hi[k:] == -np.inf)


@pytest.mark.parametrize("dims,levels", [(40, 2), (40, 3), (64, 2), (64, 3), (20, 9)])
def test_box_sets_match_quantize_cluster_at_high_dims(dims, levels):
    # levels ** dims cell ids overflow int64 in all but (40, 2); random
    # walks split every dimension, so most windows hold many distinct cells
    g = np.random.default_rng(dims * levels)
    for _ in range(4):
        n = int(g.integers(20, 50))
        q = np.cumsum(g.normal(size=(n, dims)), axis=0)
        window, group_width, cap = int(g.integers(0, 12)), int(g.integers(1, 7)), 6
        grouping = build_box_sets(q, window, group_width, levels, cap, 1e-5)
        assert_box_sets_match(grouping, q, window, group_width, levels, cap, None)


def test_one_quantization_serves_every_cap(rng):
    # the soundness suites quantize once and cap at several K: capping must
    # leave the shared record as it found it
    for _ in range(20):
        n = int(rng.integers(2, 40))
        q = np.cumsum(rng.normal(size=(n, 3)), axis=0)
        w, gw = int(rng.integers(0, 10)), int(rng.integers(1, 7))
        ref = q.max(axis=0) - q.min(axis=0)
        cells = _grouped_cells(q, w, gw, 3, 1e-5, ref)
        for cap in (1, 2, 6, 6):
            got = _cap_cells(cells, cap)
            want = build_box_sets(q, w, gw, 3, cap, 1e-5, ref)
            assert np.array_equal(got.lo, want.lo) and np.array_equal(got.hi, want.hi)


def test_grouped_boxes_cover_original_windows(rng):
    for _ in range(40):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 4))
        w = int(rng.integers(0, 6))
        gw = int(rng.integers(1, 7))
        q = rng.normal(size=(n, d))
        grouping = build_box_sets(q, w, gw, levels=3, max_boxes=4, min_cell_frac=1e-5)
        w_eff = min(w, n - 1)
        for i in range(n):
            bs = box_set_for_index(grouping, i)
            for j in range(max(0, i - w_eff), min(n - 1, i + w_eff) + 1):
                inside = np.all((bs.los <= q[j]) & (q[j] <= bs.his), axis=1)
                assert inside.any()


def test_lb_pc_hand_example():
    q = np.array([[0.0], [0.1], [0.9], [1.0]])
    grouping = build_box_sets(q, window=3, group_width=1, levels=2, max_boxes=6,
                              min_cell_frac=1e-5)
    c = np.full((4, 1), 0.5)
    res = lb_pc(c, grouping)
    assert res.value == pytest.approx(4 * 0.4, rel=1e-12)
    assert lb_mv(c, build_envelope(q, 3)).value == 0.0  # envelope box [0, 1] sees nothing


def test_point_inside_a_box_contributes_zero(rng):
    q = rng.normal(size=(10, 2))
    grouping = build_box_sets(q, 2, 1, 2, 6, 1e-5)
    res = lb_pc(q, grouping)  # each q_i lies in one of its own window's boxes
    assert res.value == 0.0


def test_matches_naive_box_distance(rng):
    for _ in range(40):
        q, c, w = random_instance(rng, max_n=20, max_dims=4, max_window=6)
        grouping = build_box_sets(q, w, 2, 2, 3, 1e-5)
        expected = 0.0
        for i in range(len(c)):
            bs = box_set_for_index(grouping, i)
            expected += min(
                naive_box_dist(c[i], bs.los[b], bs.his[b]) for b in range(bs.num_boxes)
            )
        assert lb_pc(c, grouping).value == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_dominance_chain_exact(rng):
    # lb_mv <= lb_pc (ungrouped) <= lb_ad, with no tolerance
    for _ in range(120):
        q, c, w = random_instance(rng, max_n=32, max_dims=5, max_window=10)
        env = build_envelope(q, w)
        mv = lb_mv(c, env).value
        ad = lb_ad(q, c, w).value
        for levels in (1, 2, 3):
            for cap in (1, 2, 6):
                grouping = build_box_sets(q, w, 1, levels, cap, 1e-5)
                pc = lb_pc(c, grouping).value
                assert mv <= pc <= ad


def test_soundness_all_groupings(rng):
    for _ in range(60):
        q, c, w = random_instance(rng, max_n=28, max_dims=4, max_window=8)
        exact = dtw_banded(q, c, w).distance
        for gw in (1, 3, 6):
            for levels in (1, 3):
                grouping = build_box_sets(q, w, gw, levels, 4, 1e-5)
                assert lb_pc(c, grouping).value <= exact


def test_shape_mismatch(rng):
    grouping = build_box_sets(rng.normal(size=(8, 2)), 2, 1, 2, 6, 1e-5)
    with pytest.raises(InvalidInputError):
        lb_pc(rng.normal(size=(9, 2)), grouping)
    with pytest.raises(InvalidInputError):
        lb_pc(rng.normal(size=(8, 3)), grouping)
