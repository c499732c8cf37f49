import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvdtw import InvalidInputError, dtw_banded
from mvdtw import dtw as dtw_module
from mvdtw.core import BLOCK_FLOATS, sequential_sums
from mvdtw.dtw import dtw_rows, point_costs
from mvdtw.search import _stack_candidates

from oracles import brute_dtw, count_band_paths, point_dist, reference_dtw


def test_identity_alignment(rng):
    q = rng.normal(size=(12, 3))
    for w in (0, 3, 11, 50):
        assert dtw_banded(q, q, w).distance == 0.0


def test_hand_examples():
    # diagonal path costs 1+1 over the three in-band paths
    r = dtw_banded([[0.0], [0.0]], [[1.0], [1.0]], 1)
    assert r.distance == pytest.approx(2.0, abs=1e-12)
    # diagonal path 0 + 5
    r = dtw_banded([[0.0, 0.0], [3.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]], 1)
    assert r.distance == pytest.approx(5.0, abs=1e-12)


def test_window_zero_is_pointwise_sum(rng):
    q = rng.normal(size=(15, 2))
    c = rng.normal(size=(15, 2))
    expected = sum(point_dist(q[i], c[i]) for i in range(15))
    assert dtw_banded(q, c, 0).distance == pytest.approx(expected, rel=1e-12)


def test_shape_mismatch():
    with pytest.raises(InvalidInputError):
        dtw_banded(np.zeros((3, 2)), np.zeros((4, 2)), 1)
    with pytest.raises(InvalidInputError):
        dtw_banded(np.zeros((3, 2)), np.zeros((3, 3)), 1)
    with pytest.raises(InvalidInputError):
        dtw_banded(np.zeros((3, 2)), np.zeros((3, 2)), -1)


def test_symmetry_and_window_monotonicity(rng):
    for _ in range(50):
        n = int(rng.integers(2, 20))
        d = int(rng.integers(1, 4))
        q = np.cumsum(rng.normal(size=(n, d)), axis=0)
        c = np.cumsum(rng.normal(size=(n, d)), axis=0)
        prev = math.inf
        for w in range(0, n + 2):
            r = dtw_banded(q, c, w)
            assert r.distance == dtw_banded(c, q, w).distance
            assert r.distance <= prev + 1e-9
            prev = r.distance


def test_matches_path_enumeration(rng):
    for _ in range(120):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        w = int(rng.integers(0, n))
        q = rng.normal(size=(n, d))
        c = rng.normal(size=(n, d))
        exact = dtw_banded(q, c, w).distance
        ref = brute_dtw(q, c, w)
        assert exact == pytest.approx(ref, rel=1e-9)


def test_memory_stays_bounded_on_long_series():
    import tracemalloc

    g = np.random.default_rng(3)
    q, c = np.cumsum(g.normal(size=(2, 1000, 12)), axis=1)
    tracemalloc.start()
    try:
        dtw_banded(q, c, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # the whole band at once would take ~58 MB


def test_count_band_paths_sanity():
    # Delannoy numbers on the unconstrained diagonal
    assert count_band_paths(2, 5) == 3
    assert count_band_paths(3, 5) == 13
    assert count_band_paths(4, 5) == 63
    assert count_band_paths(4, 0) == 1


# The float budget of dtw_rows' chunks of point costs, which dtw_banded
# runs on one candidate: every anti-diagonal its own chunk, chunks of
# several, and the default (one chunk at most of these sizes).
CHUNK_BUDGETS = (1, 200, BLOCK_FLOATS)


def sweep(q, cands, w, budget):
    """dtw_rows of a (C, n, D) stack, under a chunk budget."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dtw_module, "BLOCK_FLOATS", budget)
        return dtw_rows(q.T[..., None], _stack_candidates(cands, q.shape), w)


def pair_distances(q, cands, window, budget):
    """dtw_banded of q against each candidate, under a chunk budget."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dtw_module, "BLOCK_FLOATS", budget)
        return [dtw_banded(q, c, window).distance for c in cands]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    dims=st.sampled_from([*range(1, 11), 24]),
    extra_window=st.integers(0, 43),
    count=st.integers(1, 8),
    walk=st.booleans(),
    budget=st.sampled_from(CHUNK_BUDGETS),
)
# W = 0, whose odd anti-diagonals are empty steps, with odd and even n, in
# one-step chunks and in one chunk; one- and two-point series; W = 1; and
# W = n - 1, whose band is the whole square, also reached from above
@example(seed=3, n=7, dims=3, extra_window=0, count=4, walk=True, budget=1)
@example(seed=3, n=7, dims=3, extra_window=0, count=4, walk=False, budget=BLOCK_FLOATS)
@example(seed=4, n=8, dims=2, extra_window=0, count=3, walk=True, budget=1)
@example(seed=4, n=8, dims=2, extra_window=0, count=3, walk=False, budget=BLOCK_FLOATS)
@example(seed=5, n=1, dims=2, extra_window=0, count=3, walk=False, budget=BLOCK_FLOATS)
@example(seed=5, n=1, dims=2, extra_window=3, count=3, walk=False, budget=1)
@example(seed=6, n=2, dims=3, extra_window=0, count=2, walk=True, budget=1)
@example(seed=6, n=2, dims=3, extra_window=1, count=2, walk=True, budget=BLOCK_FLOATS)
@example(seed=7, n=9, dims=1, extra_window=1, count=5, walk=True, budget=200)
@example(seed=8, n=10, dims=2, extra_window=9, count=3, walk=True, budget=200)
@example(seed=8, n=10, dims=2, extra_window=13, count=3, walk=False, budget=1)
def test_batched_rows_match_single_pair(seed, n, dims, extra_window, count, walk, budget):
    window = extra_window % (n + 4)  # W in [0, n + 3]
    g = np.random.default_rng(seed)
    q = g.normal(size=(n, dims))
    cands = g.normal(size=(count, n, dims))
    if walk:
        q, cands = np.cumsum(q, axis=0), np.cumsum(cands, axis=1)
    final = sweep(q, cands, min(window, n - 1), budget)
    exact = pair_distances(q, cands, window, budget)
    for k in range(count):
        assert final[k] == reference_dtw(q, cands[k], window) == exact[k]


@pytest.mark.parametrize("budget", CHUNK_BUDGETS)
def test_cells_just_outside_the_band_stay_out(budget):
    # Each q[i] equals c[i + w + 1] and c[i - w - 1], and no c[j] within the
    # band: the cells at |i - j| = w + 1 cost 0, every in-band cell at least
    # 1, so a sweep that read a cell outside the band would come out low.
    for n in (1, 2, 3, 6, 11, 24):
        for w in range(n):
            ramp = np.arange(n + w + 1) % (2 * w + 2)
            q = np.stack([ramp[:n], 2.0 * ramp[:n]], axis=-1)
            c = np.stack([ramp[w + 1 :], 2.0 * ramp[w + 1 :]], axis=-1)
            final = sweep(q, [c, q[::-1]], w, budget)
            assert final[0] == reference_dtw(q, c, w) >= n
            assert final[1] == reference_dtw(q, q[::-1], w)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), dims=st.integers(1, 10),
       window=st.integers(0, 33), count=st.integers(1, 8),
       budget=st.sampled_from(CHUNK_BUDGETS))
def test_batched_rows_of_a_subset_equal_the_full_sweep(seed, n, dims, window, count, budget):
    # nn_search sweeps only the candidates it may compare (stack[need]); each
    # one's distance must not depend on which others share the sweep
    g = np.random.default_rng(seed)
    q = np.cumsum(g.normal(size=(n, dims)), axis=0)
    cands = np.cumsum(g.normal(size=(count, n, dims)), axis=1)
    w = min(window, n - 1)
    full = dtw_rows(q.T[..., None], _stack_candidates(cands, q.shape), w)
    need = np.flatnonzero(g.random(count) < 0.5)
    if not need.size:
        need = g.integers(0, count, size=1)
    assert sweep(q, cands[need], w, budget).tolist() == full[need].tolist()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), dims=st.integers(1, 10),
       extra_window=st.integers(0, 43), counts=st.lists(st.integers(1, 6), min_size=1, max_size=8),
       budget=st.sampled_from(CHUNK_BUDGETS))
# the sweep's corner shapes, as in test_batched_rows_match_single_pair
@example(seed=3, n=7, dims=3, extra_window=0, counts=[2, 3], budget=1)
@example(seed=4, n=8, dims=2, extra_window=0, counts=[1, 4, 2], budget=BLOCK_FLOATS)
@example(seed=5, n=1, dims=2, extra_window=0, counts=[3, 1], budget=BLOCK_FLOATS)
@example(seed=6, n=2, dims=3, extra_window=1, counts=[2, 2], budget=1)
@example(seed=7, n=9, dims=1, extra_window=1, counts=[5, 1], budget=200)
@example(seed=8, n=10, dims=2, extra_window=9, counts=[1, 3, 2], budget=200)
def test_per_column_queries_equal_one_sweep_per_query(seed, n, dims, extra_window, counts, budget):
    # The selection sample sweeps the candidates of several queries at once,
    # with (D, n, C) query planes, column k holding candidate k's query
    window = extra_window % (n + 4)  # W in [0, n + 3]
    w = min(window, n - 1)
    g = np.random.default_rng(seed)
    queries = np.cumsum(g.normal(size=(len(counts), n, dims)), axis=1)
    cands = [np.cumsum(g.normal(size=(k, n, dims)), axis=1) for k in counts]
    qplanes = np.repeat(np.stack([q.T for q in queries], axis=-1), counts, axis=-1)
    planes = np.concatenate([_stack_candidates(c, (n, dims)) for c in cands], axis=-1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dtw_module, "BLOCK_FLOATS", budget)
        batched = dtw_rows(qplanes, planes, w)
    each = np.concatenate([sweep(q, c, w, budget) for q, c in zip(queries, cands)])
    assert batched.view(np.int64).tolist() == each.view(np.int64).tolist()


def test_sweeps_sharing_a_thread_or_running_at_once_give_their_own_bits(rng):
    # dtw_rows keeps one cost buffer per thread across sweeps within
    # BLOCK_FLOATS (the last shape needs more): a sweep after one of another
    # shape, and threads sweeping at once, must each read only their own costs
    shapes = [(30, 3, 60, 5), (12, 2, 7, 11), (40, 4, 120, 3), (1, 1, 5, 0), (12, 1, 3000, 11)]
    cases = []
    for n, dims, count, w in shapes:
        q = np.cumsum(rng.normal(size=(n, dims)), axis=0)
        planes = _stack_candidates(np.cumsum(rng.normal(size=(count, n, dims)), axis=1), q.shape)
        cases.append((q.T[..., None], planes, w))
    serial = [dtw_rows(*case).view(np.int64).tolist() for case in cases]

    def sweep_all(order):
        return [(k, dtw_rows(*cases[k]).view(np.int64).tolist()) for k in order * 10]

    orders = [list(np.roll(range(len(cases)), t)) for t in range(4)]  # more threads than cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            runs = list(pool.map(sweep_all, orders, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(runs) == len(orders)
    assert all(bits == serial[k] for run in runs for k, bits in run)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["walk", "constant", "overflow"]),
    n=st.integers(1, 40),
    dims=st.integers(1, 10),
    extra_window=st.integers(0, 43),
)
def test_diagonal_cost_bounds_dtw_from_above(seed, kind, n, dims, extra_window):
    # The search's upper bound of a candidate's DTW distance, bit for bit:
    # the diagonal path is one of the paths DTW minimizes over, and adding
    # its costs left to right rounds no lower than the DP's sums do.  Values
    # near 1e308 make point costs overflow to +inf.
    window = extra_window % (n + 4)  # W in [0, n + 3]
    g = np.random.default_rng(seed)
    if kind == "walk":
        q, c = np.cumsum(g.normal(size=(2, n, dims)), axis=1)
    elif kind == "constant":
        q, c = np.broadcast_to(g.integers(0, 3, size=(2, 1, dims)), (2, n, dims)).astype(float)
    else:
        q, c = np.clip(np.round(g.normal(size=(2, n, dims))), -1.0, 1.0) * 1e308
    with np.errstate(over="ignore"):
        diagonal = sequential_sums(point_costs(q.T, c.T))
        assert diagonal >= dtw_banded(q, c, window).distance
