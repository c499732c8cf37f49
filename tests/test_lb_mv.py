import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdtw import InvalidInputError, build_box_sets, build_envelope, dtw_banded, lb_ad, lb_mv, lb_pc

from conftest import random_instance
from oracles import naive_envelope, naive_lb_ad, naive_lb_mv


def tube(env):
    """The envelope's (n, D) lower and upper edges, read off its one-box
    (D, n, 1) grouping."""
    assert env.lo.shape == env.hi.shape and env.lo.shape[2] == 1
    assert env.lo.flags.c_contiguous and env.hi.flags.c_contiguous
    return env.lo[..., 0].T, env.hi[..., 0].T


def test_envelope_hand_example():
    lower, upper = tube(build_envelope([[1.0], [2.0], [3.0]], 1))
    assert upper[:, 0].tolist() == [2.0, 3.0, 3.0]
    assert lower[:, 0].tolist() == [1.0, 1.0, 2.0]


def test_envelope_window_zero_and_constant(rng):
    q = rng.normal(size=(9, 3))
    lower, upper = tube(build_envelope(q, 0))
    assert np.array_equal(upper, q) and np.array_equal(lower, q)
    const = np.full((7, 2), 1.5)
    lower, upper = tube(build_envelope(const, 3))
    assert np.array_equal(upper, const) and np.array_equal(lower, const)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["normal", "rounded", "constant"]),
    n=st.integers(1, 70),
    dims=st.integers(1, 10),
    extra_window=st.integers(0, 73),
)
def test_envelope_matches_naive(seed, kind, n, dims, extra_window):
    # W in [0, n + 3]; rounded and constant series put ties in most windows
    w = extra_window % (n + 4)
    q = np.random.default_rng(seed).normal(size=(n, dims))
    if kind == "rounded":
        q = np.round(q)
    elif kind == "constant":
        q = np.full_like(q, q[0, 0])
    want_lower, want_upper = naive_envelope(q, min(w, n - 1))
    lower, upper = tube(build_envelope(q, w))
    assert np.array_equal(lower, want_lower)
    assert np.array_equal(upper, want_upper)
    assert np.all(lower <= q) and np.all(q <= upper)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["normal", "rounded"]),
    n=st.integers(1, 59),
    dims=st.integers(1, 10),
    window=st.integers(0, 24),
)
def test_envelope_is_the_one_cell_box_set(seed, kind, n, dims, window):
    # one window per group, one level, one box: each index's box is the
    # bounding box of its window, so lb_mv is lb_pc on it, bit for bit.  The
    # two builds may pick different signs of a zero among tied values
    # (rounded series hold both), which no point-to-box distance sees.
    g = np.random.default_rng(seed)
    q, c = g.normal(size=(2, n, dims))
    if kind == "rounded":
        q = np.round(q)
    env = build_envelope(q, window)
    boxes = build_box_sets(q, window, 1, 1, 1, 1e-5)
    assert np.array_equal(env.lo, boxes.lo) and np.array_equal(env.hi, boxes.hi)
    if kind == "normal":
        assert env.lo.tobytes() == np.ascontiguousarray(boxes.lo).tobytes()
        assert env.hi.tobytes() == np.ascontiguousarray(boxes.hi).tobytes()
    assert lb_mv(c, env).value.hex() == lb_pc(c, boxes).value.hex()
    assert lb_mv(q, env).value.hex() == lb_pc(q, boxes).value.hex() == (0.0).hex()


def test_lb_mv_hand_example():
    env = build_envelope([[1.0], [2.0], [3.0]], 1)
    res = lb_mv([[5.0], [5.0], [5.0]], env)
    assert res.value == pytest.approx(7.0, abs=1e-12)


def test_lb_mv_inside_envelope_is_zero(rng):
    q = rng.normal(size=(20, 3))
    env = build_envelope(q, 4)
    lower, upper = tube(env)
    mid = (upper + lower) / 2.0
    assert lb_mv(mid, env).value == 0.0


def test_lb_mv_shape_mismatch(rng):
    env = build_envelope(rng.normal(size=(5, 2)), 1)
    with pytest.raises(InvalidInputError, match=r"shape mismatch: \(5, 3\) vs \(5, 2\)"):
        lb_mv(rng.normal(size=(5, 3)), env)


def test_lb_ad_hand_example():
    # nearest in-window query point per candidate index: 3 + 2 + 2
    res = lb_ad([[1.0], [2.0], [3.0]], [[5.0], [5.0], [5.0]], 1)
    assert res.value == pytest.approx(7.0, abs=1e-12)


def test_lb_ad_identical_series_is_zero(rng):
    q = rng.normal(size=(15, 2))
    assert lb_ad(q, q, 3).value == 0.0


def test_lb_ad_equals_masked_cross_distances(rng):
    # the (n, n, D) formulation the band replaced, bit for bit, with each
    # distance's dimensions added left to right as point_costs adds them
    for _ in range(60):
        q, c, w = random_instance(rng, max_n=30, max_dims=10, max_window=34)
        n = len(q)
        diff = c[:, None, :] - q[None, :, :]
        dists = np.sqrt(np.cumsum(diff * diff, axis=-1)[..., -1])
        i = np.arange(n)
        dists[np.abs(i[:, None] - i[None, :]) > min(w, n - 1)] = np.inf
        assert lb_ad(q, c, w).value == float(np.cumsum(dists.min(axis=1))[-1])


def test_lb_ad_memory_grows_with_the_band_not_the_square():
    import tracemalloc

    g = np.random.default_rng(3)
    q, c = g.normal(size=(2, 4000, 3))
    tracemalloc.start()
    try:
        lb_ad(q, c, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # an (n, n, D) temporary would be 384 MB


def test_bounds_match_naive_and_stay_sound(rng):
    for _ in range(80):
        q, c, w = random_instance(rng, max_n=24, max_dims=4, max_window=8)
        env = build_envelope(q, w)
        mv = lb_mv(c, env).value
        ad = lb_ad(q, c, w).value
        assert mv == pytest.approx(naive_lb_mv(q, c, min(w, len(q) - 1)), rel=1e-12, abs=1e-12)
        assert ad == pytest.approx(naive_lb_ad(q, c, w), rel=1e-12, abs=1e-12)
        exact = dtw_banded(q, c, w).distance
        assert mv <= ad  # box distance never beats distance to a point in the box
        assert ad <= exact
        assert mv <= exact


def test_univariate_matches_classic_envelope_bound(rng):
    # with D=1 the per-point box distance is the plain absolute deviation
    # outside the envelope, i.e. classic LB_Keogh under the non-squared sum
    for _ in range(20):
        n = int(rng.integers(2, 30))
        w = int(rng.integers(0, 8))
        q = np.cumsum(rng.normal(size=(n, 1)), axis=0)
        c = np.cumsum(rng.normal(size=(n, 1)), axis=0)
        env = build_envelope(q, w)
        lower, upper = tube(env)
        expected = np.maximum(c - upper, 0.0) + np.maximum(lower - c, 0.0)
        assert lb_mv(c, env).value == pytest.approx(float(expected.sum()), rel=1e-12)
