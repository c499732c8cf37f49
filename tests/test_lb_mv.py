import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdtw import InvalidInputError, build_envelope, dtw_banded, lb_ad, lb_mv

from conftest import random_instance
from oracles import naive_envelope, naive_lb_ad, naive_lb_mv


def test_envelope_hand_example():
    env = build_envelope([[1.0], [2.0], [3.0]], 1)
    assert env.upper[:, 0].tolist() == [2.0, 3.0, 3.0]
    assert env.lower[:, 0].tolist() == [1.0, 1.0, 2.0]


def test_envelope_window_zero_and_constant(rng):
    q = rng.normal(size=(9, 3))
    env = build_envelope(q, 0)
    assert np.array_equal(env.upper, q) and np.array_equal(env.lower, q)
    const = np.full((7, 2), 1.5)
    env = build_envelope(const, 3)
    assert np.array_equal(env.upper, const) and np.array_equal(env.lower, const)


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
    lower, upper = naive_envelope(q, min(w, n - 1))
    env = build_envelope(q, w)
    assert np.array_equal(env.lower, lower)
    assert np.array_equal(env.upper, upper)
    assert np.all(env.lower <= q) and np.all(q <= env.upper)


def test_lb_mv_hand_example():
    env = build_envelope([[1.0], [2.0], [3.0]], 1)
    res = lb_mv([[5.0], [5.0], [5.0]], env)
    assert res.value == pytest.approx(7.0, abs=1e-12)


def test_lb_mv_inside_envelope_is_zero(rng):
    q = rng.normal(size=(20, 3))
    env = build_envelope(q, 4)
    mid = (env.upper + env.lower) / 2.0
    assert lb_mv(mid, env).value == 0.0


def test_lb_mv_shape_mismatch(rng):
    env = build_envelope(rng.normal(size=(5, 2)), 1)
    with pytest.raises(InvalidInputError):
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
        expected = np.maximum(c - env.upper, 0.0) + np.maximum(env.lower - c, 0.0)
        assert lb_mv(c, env).value == pytest.approx(float(expected.sum()), rel=1e-12)
