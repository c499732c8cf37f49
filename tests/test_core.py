import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvdtw import InvalidInputError, Method, MultivariateSeries, SearchParams, point_distance
from mvdtw.core import sum_last

points = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=8
)


def test_point_distance_examples():
    assert point_distance((0, 0), (0, 0)) == 0.0
    assert point_distance((0, 0), (3, 4)) == 5.0
    assert point_distance((1,), (4,)) == 3.0


@pytest.mark.parametrize("dims", range(1, 11))
def test_sum_last_matches_numpy_bit_for_bit(dims):
    # the column-by-column path must give numpy's bits on either side of the
    # size switch, or DTW costs and bound distances could drift apart by ulps
    g = np.random.default_rng(dims)
    for shape in [(1,), (3,), (5, 7), (8 * dims * dims,), (40, 21), (3, 50, 11)]:
        x = g.random(shape + (dims,)) * 10.0 ** g.uniform(-4, 4, shape + (dims,))
        assert np.array_equal(sum_last(x), x.sum(axis=-1))
    v = g.random(dims)
    assert sum_last(v) == v.sum()


def test_point_distance_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        point_distance((1, 2), (1, 2, 3))


@given(points, points, points)
def test_point_distance_metric_properties(a, b, c):
    dims = min(len(a), len(b), len(c))
    a, b, c = a[:dims], b[:dims], c[:dims]
    ab = point_distance(a, b)
    assert ab == point_distance(b, a)
    ac = point_distance(a, c)
    bc = point_distance(b, c)
    slack = 1e-9 * max(1.0, ab, ac, bc)
    assert abs(ac - bc) <= ab + slack
    assert ab <= ac + bc + slack


def test_series_validation():
    s = MultivariateSeries(np.arange(6.0).reshape(3, 2))
    assert s.n == 3 and s.dims == 2
    assert not s.values.flags.writeable
    with pytest.raises(InvalidInputError):
        MultivariateSeries(np.array([[np.nan, 1.0]]))
    with pytest.raises(InvalidInputError):
        MultivariateSeries(np.empty((0, 2)))
    univariate = MultivariateSeries(np.arange(4.0))
    assert univariate.dims == 1


def test_search_params_defaults_and_validation():
    p = SearchParams(window=10)
    assert p.refresh_period == 5
    assert p.max_boxes == 6
    assert p.group_width == 6
    assert p.min_cell_frac == 0.00001
    assert p.method is Method.TC_DTW
    assert p.effective_window(8) == 7  # capped at n-1
    assert p.effective_window(100) == 10
    with pytest.raises(InvalidInputError):
        SearchParams(window=-1)
    with pytest.raises(InvalidInputError):
        SearchParams(window=1, trigger_ti=1.0)
    with pytest.raises(InvalidInputError):
        SearchParams(window=1, refresh_period=0)
    with pytest.raises(InvalidInputError):
        SearchParams(window=1, dims_used=0)
    SearchParams(window=1, method="lb_ti")  # strings coerce to the enum
