import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdtw import (
    InvalidInputError,
    NeighborDistances,
    dtw_banded,
    lb_ad,
    lb_ti,
    neighbor_steps,
)
from mvdtw.dtw import point_costs

from conftest import random_instance
from oracles import TiVariant, point_dist, reference_lb_ti, ti_advance, ti_extend_top

ALL_VARIANTS = list(TiVariant)


def ti_value(q, c, w, variant, period=5, **kw):
    """The deployed lb_ti for TIP_TOP, the reference for every other variant."""
    if variant == TiVariant.TIP_TOP:
        return lb_ti(q, c, w, refresh_period=period, **kw).value
    return reference_lb_ti(q, c, w, variant, period, **kw).value


def test_ti_advance_examples():
    # zero step leaves the interval untouched, exactly
    assert ti_advance(2.5, 4.0, 0.0) == (2.5, 4.0)
    lo, up = ti_advance(5.0, 7.0, 2.0)
    assert lo == pytest.approx(3.0, abs=1e-11)
    assert up == pytest.approx(9.0, rel=1e-12)
    lo, up = ti_advance(1.0, 2.0, 10.0)  # second max-branch active
    assert lo == pytest.approx(8.0, abs=1e-11)
    assert up == pytest.approx(12.0, rel=1e-12)
    # safety pad keeps the floor one-sided
    assert ti_advance(5.0, 7.0, 2.0)[0] <= 3.0
    assert ti_advance(5.0, 7.0, 2.0)[1] >= 9.0


def test_ti_advance_clamps_at_zero():
    lo, up = ti_advance(1.0, 5.0, 2.0)  # both subtraction branches negative
    assert lo == 0.0
    assert up == pytest.approx(7.0, rel=1e-12)


def test_ti_extend_top_examples():
    assert ti_extend_top(3.0, 6.0, 0.0) == (3.0, 6.0)
    lo, up = ti_extend_top(4.0, 6.0, 1.0)
    assert lo == pytest.approx(3.0, abs=1e-11)
    assert up == pytest.approx(7.0, rel=1e-12)


def test_extend_brackets_true_distance(rng):
    # interval derived for (q_i, c_top) from (q_i, c_top-1) must bracket d(q_i, c_top)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        qi = rng.normal(size=d)
        c_prev = rng.normal(size=d)
        c_top = c_prev + rng.normal(size=d) * rng.choice([1e-6, 0.1, 10.0])
        true_prev = point_dist(qi, c_prev)
        lo, up = ti_extend_top(true_prev, true_prev, point_dist(c_prev, c_top))
        true_top = point_dist(qi, c_top)
        assert lo <= true_top <= up


def test_identical_series_bound_is_zero(rng):
    q = np.cumsum(rng.normal(size=(20, 3)), axis=0)
    for variant in ALL_VARIANTS:
        assert ti_value(q, q, 5, variant) == 0.0


def test_tip_with_period_n_equals_basic(rng):
    for _ in range(30):
        q, c, w = random_instance(rng, max_n=32, max_dims=5, max_window=10)
        n = len(q)
        basic = reference_lb_ti(q, c, w, TiVariant.BASIC).value
        tip = reference_lb_ti(q, c, w, TiVariant.TIP, refresh_period=n).value
        assert tip == basic  # bit-for-bit
        top = reference_lb_ti(q, c, w, TiVariant.TOP).value
        tip_top = lb_ti(q, c, w, refresh_period=n).value
        assert tip_top == top


def test_slot_sandwich(rng):
    # every maintained interval brackets the computed point distance
    for _ in range(40):
        q, c, w = random_instance(rng, max_n=24, max_dims=4, max_window=8)
        for variant in ALL_VARIANTS:
            trace = []
            reference_lb_ti(q, c, w, variant, refresh_period=3, trace=trace)
            for i, lo, hi, slot_lo, slot_up in trace:
                for idx, j in enumerate(range(lo, hi + 1)):
                    true = float(point_costs(q[i], c[j]))
                    assert slot_lo[idx] <= true <= slot_up[idx] or (
                        abs(slot_lo[idx] - true) < 1e-9 and abs(slot_up[idx] - true) < 1e-9
                    )
                    assert 0.0 <= slot_lo[idx] <= slot_up[idx]


def test_refresh_rows_never_looser_with_smaller_period(rng):
    # at rows the small period refreshes, its slots hold true distances, which
    # dominate any propagated floor the large period carries there
    for _ in range(20):
        q, c, w = random_instance(rng, max_n=24, max_dims=3, max_window=6)
        t_small, t_large = [], []
        reference_lb_ti(q, c, w, TiVariant.TIP, refresh_period=2, trace=t_small)
        reference_lb_ti(q, c, w, TiVariant.TIP, refresh_period=7, trace=t_large)
        for (i, lo, hi, lo_s, _), (_, _, _, lo_l, _) in zip(t_small, t_large):
            if i % 2 == 0:
                assert np.all(lo_s >= lo_l - 1e-12)


def test_gap_growth_under_basic(rng):
    # diminishing tightness: the interval width never shrinks while a slot
    # is only propagated
    for _ in range(25):
        q, c, w = random_instance(rng, max_n=20, max_dims=3, max_window=5)
        n = len(q)
        w_eff = min(w, n - 1)
        trace = []
        reference_lb_ti(q, c, w, TiVariant.BASIC, trace=trace)
        steps = neighbor_steps(q)
        by_col = {}
        for i, lo, hi, slot_lo, slot_up in trace:
            for idx, j in enumerate(range(lo, hi + 1)):
                gap = slot_up[idx] - slot_lo[idx]
                if j in by_col and j != i + w_eff:  # existing slot, advanced this row
                    prev_gap, prev_lo, prev_up = by_col[j]
                    assert gap >= prev_gap - 1e-12
                    assert gap >= prev_gap - 2.0 * steps[i - 1] - 1e-12
                    first_branch = prev_lo - steps[i - 1] >= max(steps[i - 1] - prev_up, 0.0)
                    if first_branch and steps[i - 1] > 0:
                        assert gap == pytest.approx(prev_gap + 2.0 * steps[i - 1], rel=1e-9, abs=1e-9)
                by_col[j] = (gap, slot_lo[idx], slot_up[idx])


def test_soundness_and_dominance(rng):
    for _ in range(60):
        q, c, w = random_instance(rng, max_n=32, max_dims=5, max_window=10)
        n = len(q)
        exact = dtw_banded(q, c, w).distance
        ad = lb_ad(q, c, w).value
        for variant in ALL_VARIANTS:
            for period in (1, 2, 5, n):
                v = ti_value(q, c, w, variant, period)
                assert v <= ad
                assert v <= exact


def test_period_one_equals_lb_ad(rng):
    # refreshing every row makes every slot a true distance, so the column
    # minima coincide with the all-distances bound
    for _ in range(20):
        q, c, w = random_instance(rng, max_n=24, max_dims=4, max_window=8)
        v = lb_ti(q, c, w, refresh_period=1).value
        assert v == pytest.approx(lb_ad(q, c, w).value, rel=1e-12, abs=1e-12)


def test_neighbor_distances_reuse(rng):
    q = np.cumsum(rng.normal(size=(18, 3)), axis=0)
    c = np.cumsum(rng.normal(size=(18, 3)), axis=0)
    nd = NeighborDistances(query_steps=neighbor_steps(q))
    assert lb_ti(q, c, 4).value == lb_ti(q, c, 4, neighbor=nd).value


def test_input_validation(rng):
    q = rng.normal(size=(6, 2))
    with pytest.raises(InvalidInputError):
        lb_ti(q, rng.normal(size=(7, 2)), 2)
    with pytest.raises(InvalidInputError):
        lb_ti(q, rng.normal(size=(6, 2)), 2, refresh_period=0)
    with pytest.raises(InvalidInputError):
        lb_ti(q, rng.normal(size=(6, 2)), -1)
    # precomputed query steps must be the query's n - 1 finite steps >= 0
    steps = neighbor_steps(q)
    for bad in (np.zeros(3), np.zeros(6), steps[None, :], np.append(steps[1:], np.nan),
                np.append(steps[1:], np.inf), -steps, "steps"):
        with pytest.raises(InvalidInputError, match="neighbor"):
            lb_ti(q, rng.normal(size=(6, 2)), 2, neighbor=NeighborDistances(query_steps=bad))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["walk", "iid", "plateau", "near-copy"]),
    n=st.integers(1, 64),
    dims=st.integers(1, 10),
    extra_window=st.integers(0, 67),
    period=st.sampled_from([1, 2, 5, "n"]),
    with_neighbor=st.booleans(),
)
def test_lb_ti_equals_reference_tip_top(seed, kind, n, dims, extra_window, period, with_neighbor):
    window = extra_window % (n + 4)  # W in [0, n + 3]
    g = np.random.default_rng(seed)
    q = g.normal(size=(n, dims))
    c = g.normal(size=(n, dims))
    if kind == "walk":
        q, c = np.cumsum(q, axis=0), np.cumsum(c, axis=0)
    elif kind == "plateau":
        q, c = np.repeat(q, 3, axis=0)[:n], np.repeat(c, 3, axis=0)[:n]
    elif kind == "near-copy":
        q = np.cumsum(q, axis=0)
        c = np.roll(q + 1e-3 * c, int(g.integers(0, 3)), axis=0)
    p = n if period == "n" else period
    nd = NeighborDistances(query_steps=neighbor_steps(q)) if with_neighbor else None
    got = lb_ti(q, c, window, refresh_period=p, neighbor=nd)
    want = reference_lb_ti(q, c, window, "tip_top", p, neighbor=nd)
    assert got.value.hex() == want.value.hex()


def test_overflowing_distances_match_reference():
    # point distances that overflow to +inf, next to zero query steps (which
    # must leave intervals untouched, infinite ones included) and finite ones
    q = np.array([[1e200], [1e200], [1e200], [0.0], [0.0], [-1e200]])
    c = np.array([[-1e200], [0.0], [1e200], [-1e200], [1.0], [1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        for w in range(6):
            for p in (1, 2, 3, 6):
                got = lb_ti(q, c, w, refresh_period=p)
                want = reference_lb_ti(q, c, w, "tip_top", p)
                assert got.value.hex() == want.value.hex()


@pytest.mark.parametrize("block_floats", [1, 7, 60, 200])
def test_chunked_blocks_match_reference(monkeypatch, rng, block_floats):
    # blocks advance in chunks of whole blocks, as many as fit in the float
    # budget; every chunk boundary must leave the bound unchanged
    import sys

    monkeypatch.setattr(sys.modules["mvdtw.lb_ti"], "BLOCK_FLOATS", block_floats)
    for _ in range(25):
        q, c, w = random_instance(rng, max_n=40, max_dims=4, max_window=12)
        n = len(q)
        for p in (1, 2, 5, n):
            got = lb_ti(q, c, w, refresh_period=p)
            assert got.value == reference_lb_ti(q, c, w, "tip_top", p).value


def test_memory_stays_bounded_on_long_series():
    # (n, W, D, peak bound): a chunk of blocks takes at most BLOCK_FLOATS
    # floats of temporaries, whatever D is
    import tracemalloc

    rows = [(4000, 4000, 3, 8),  # all 800 blocks at once would take ~450 MB
            (2000, 200, 12, 1.5),
            (2000, 200, 24, 1.5)]
    for n, w, dims, bound_mb in rows:
        g = np.random.default_rng(3)
        q, c = np.cumsum(g.normal(size=(2, n, dims)), axis=1)
        tracemalloc.start()
        try:
            lb_ti(q, c, w, refresh_period=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20, (n, w, dims, peak)
