import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvdtw import (
    InvalidInputError, Method, SearchParams, build_box_sets, build_envelope, dtw_banded, lb_ad,
    lb_mv, lb_ti, nn_search,
)
from mvdtw.core import SUM_BY_PLANE_COLUMNS, as_series, sequential_sums
from mvdtw.dtw import point_costs

points = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=8
)


def pair_cost(a, b) -> float:
    """dtw.point_costs of one pair of points."""
    return float(point_costs(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)))


def test_point_distance_examples():
    # dimension-first: the points are columns
    assert point_costs(np.zeros((2, 3)), np.array([[0.0, 3.0, -3.0], [0.0, 4.0, 4.0]])).tolist() == [
        0.0, 5.0, 5.0]
    assert pair_cost((0, 0), (0, 0)) == 0.0
    assert pair_cost((0, 0), (3, 4)) == 5.0
    assert pair_cost((1,), (4,)) == 3.0


def left_to_right(x):
    total = x[0].copy()
    for p in range(1, x.shape[0]):
        total = total + x[p]
    return total


@pytest.mark.parametrize("dims", [*range(1, 11), 24, 40])
def test_sequential_sums_adds_left_to_right(dims):
    # every point distance, bound total and work charge adds in this one
    # order, on either side of the column-count switch, or DTW costs and
    # bound distances could drift apart by ulps; numpy's own axis sums go
    # pairwise on long axes and on dimension-major views
    g = np.random.default_rng(dims)
    cols = SUM_BY_PLANE_COLUMNS
    for shape in [(), (1,), (3,), (cols - 1,), (cols,), (5, 7), (40, 21), (3, 50, 11)]:
        x = g.random((dims,) + shape) * 10.0 ** g.uniform(-4, 4, (dims,) + shape)
        assert np.array_equal(sequential_sums(x), left_to_right(x))
        points = np.ascontiguousarray(np.moveaxis(x, 0, -1))
        view = np.moveaxis(points, -1, 0)  # a .T view of dimension-last points
        assert np.array_equal(sequential_sums(view), left_to_right(x))
    long = g.random(1000 * dims) * 10.0 ** g.uniform(-4, 4, 1000 * dims)
    assert sequential_sums(long) == left_to_right(long)


@given(points, points, points)
def test_point_distance_metric_properties(a, b, c):
    # the triangle bound's propagation rests on these, up to the ulps its
    # padding absorbs
    dims = min(len(a), len(b), len(c))
    a, b, c = a[:dims], b[:dims], c[:dims]
    ab = pair_cost(a, b)
    assert ab == pair_cost(b, a)
    ac = pair_cost(a, c)
    bc = pair_cost(b, c)
    slack = 1e-9 * max(1.0, ab, ac, bc)
    assert abs(ac - bc) <= ab + slack
    assert ab <= ac + bc + slack


def test_series_validation():
    assert as_series(np.arange(6.0).reshape(3, 2)).shape == (3, 2)
    with pytest.raises(InvalidInputError, match="non-finite"):
        as_series(np.array([[np.nan, 1.0]]))
    with pytest.raises(InvalidInputError, match="n>=1"):
        as_series(np.empty((0, 2)))
    assert as_series(np.arange(4.0)).shape == (4, 1)  # univariate


def test_search_params_defaults_and_validation():
    p = SearchParams(window=10)
    # the settable fields are the ones tuning or the caller chooses; the rest
    # are constants, the same on the class and every instance
    assert {f.name for f in dataclasses.fields(SearchParams)} == {
        "window", "method", "trigger_ti", "trigger_pc", "quant_levels"}
    for name, value in (("refresh_period", 5), ("max_boxes", 6), ("group_width", 6),
                        ("min_cell_frac", 0.00001)):
        assert getattr(SearchParams, name) == getattr(p, name) == value
    assert p.method is Method.TC_DTW
    assert p.effective_window(8) == 7  # capped at n-1
    assert p.effective_window(100) == 10
    assert SearchParams(window=3.0).window == 3
    for bad in (-1, 2.5, "3", None, float("inf")):
        with pytest.raises(InvalidInputError, match="window"):
            SearchParams(window=bad)
    for bad in (0, 2.5, "2"):
        with pytest.raises(InvalidInputError, match="quant_levels"):
            SearchParams(window=1, quant_levels=bad)
    for name in ("trigger_ti", "trigger_pc"):
        for bad in (1.0, 0.0, "0.5", None, float("nan"), np.array([0.5, 0.5])):
            with pytest.raises(InvalidInputError, match=name):
                SearchParams(window=1, **{name: bad})
    SearchParams(window=1, method="lb_ti")  # strings coerce to the enum


WINDOW_CALLS = {
    "dtw_banded": lambda q, w: dtw_banded(q, q, w),
    "lb_ad": lambda q, w: lb_ad(q, q, w),
    "lb_ti": lambda q, w: lb_ti(q, q, w),
    "build_envelope": lambda q, w: build_envelope(q, w),
    "build_box_sets": lambda q, w: build_box_sets(q, w, 2, 2, 6, 1e-5),
}


# a negative window under the call's name; a fractional or text one too
@pytest.mark.parametrize("name, window", [pytest.param(name, -1, id=name) for name in WINDOW_CALLS] + [
    pytest.param(name, bad, id=f"{name}-{kind}") for name in WINDOW_CALLS
    for kind, bad in (("fraction", 2.5), ("text", "3"))])
def test_negative_window_rejected(name, window):
    with pytest.raises(InvalidInputError, match="window"):
        WINDOW_CALLS[name](np.arange(12.0).reshape(6, 2), window)


@pytest.mark.parametrize("args, match", [
    ((2.5, 2, 6, 1e-5), "group_width"), ((2, 2.5, 6, 1e-5), "levels"),
    ((2, 2, 0, 1e-5), "max_boxes"),
    ((2, 2, 6, 1e-5, np.ones(2)), "dim_range"), ((2, 2, 6, 1e-5, [1.0, np.nan, 1.0]), "dim_range"),
    ((2, 2, 6, "x"), "min_cell_frac"), ((2, 2, 6, np.nan), "min_cell_frac"),
    ((2, 2, 6, -1e-5), "min_cell_frac"), ((2, 2, 6, np.inf), "min_cell_frac"),
])
def test_box_set_arguments_rejected(args, match):
    q = np.arange(18.0).reshape(6, 3)
    with pytest.raises(InvalidInputError, match=match):
        build_box_sets(q, 1, *args)
    if match == "dim_range":  # nn_search hands dim_range on to build_box_sets
        params = SearchParams(window=1, method=Method.LB_PC)
        with pytest.raises(InvalidInputError, match="dim_range"):
            nn_search(q, [q, q + 1.0], params, dim_range=args[4])


@pytest.mark.parametrize("bad", [[["a", "b"]], [[1.0, 2.0], [3.0]]], ids=["text", "ragged"])
@pytest.mark.parametrize("call", [
    lambda x, ok, p: dtw_banded(x, x, 1),
    lambda x, ok, p: lb_mv(x, build_envelope(ok, 1)),
    lambda x, ok, p: nn_search(x, [ok], p),
    lambda x, ok, p: nn_search(ok, [ok, x], p),
], ids=["dtw_banded", "lb_mv", "nn_search_query", "nn_search_candidate"])
def test_non_numeric_input_rejected(call, bad):
    with pytest.raises(InvalidInputError, match="not numeric"):
        call(bad, np.zeros((2, 2)), SearchParams(window=1, method=Method.LB_MV))
