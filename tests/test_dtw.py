import math

import numpy as np
import pytest
from hypothesis import given, settings
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
        return dtw_rows(q, _stack_candidates(cands, q.shape), w)


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
    full = dtw_rows(q, _stack_candidates(cands, q.shape), w)
    need = np.flatnonzero(g.random(count) < 0.5)
    if not need.size:
        need = g.integers(0, count, size=1)
    assert sweep(q, cands[need], w, budget).tolist() == full[need].tolist()


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
