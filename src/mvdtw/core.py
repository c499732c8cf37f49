"""Shared domain types, parameter records, and summation helpers.

Distance convention used throughout the package: the cost of aligning two
points is the plain (non-squared) Euclidean distance (`dtw.point_costs`), and
a DTW distance is the plain sum of point costs along the warping path.  The
non-squared form is a metric, which is what makes triangle-inequality bound
propagation sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class Method(str, Enum):
    """Nearest-neighbor search strategy."""

    NONE = "none"
    LB_MV = "lb_mv"
    LB_TI = "lb_ti"
    LB_PC = "lb_pc"
    TC_DTW = "tc_dtw"
    LB_AD = "lb_ad"


def as_series(x) -> np.ndarray:
    """Coerce a series-like object to a validated float64 array of shape (n, D).

    Accepts a MultivariateSeries, an (n, D) array, or a 1-D array (treated as
    a univariate series).  Raises InvalidInputError on empty or non-finite
    input.
    """
    if isinstance(x, MultivariateSeries):
        return x.values
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"series must be (n, D) with n>=1, D>=1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("series contains non-finite values")
    return a


@dataclass(frozen=True, eq=False)
class MultivariateSeries:
    """One time series: n points, each a D-dimensional real vector.

    `values` has shape (n, D) and is frozen after construction, so instances
    can be shared freely across concurrent workers.
    """

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=np.float64)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise InvalidInputError(f"series must be (n, D) with n>=1, D>=1, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("series contains non-finite values")
        a = np.ascontiguousarray(a)
        a.flags.writeable = False
        object.__setattr__(self, "values", a)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]


def sum_last(x: np.ndarray) -> np.ndarray:
    """`x.sum(axis=-1)`, bit for bit, but fast on large batches.

    numpy reduces a short last axis with a costly per-row inner loop.  It
    adds an axis of up to seven entries left to right, so adding the columns
    one at a time gives the same bits several times faster once the batch is
    large; small inputs and longer axes go to numpy.  Point distances must
    stay bit-identical between the bounds and the DTW cell costs, and the
    tests pin both paths to numpy's result.
    """
    dims = x.shape[-1]
    if not 2 <= dims <= 7 or x.size < 8 * dims**3:
        return x.sum(axis=-1)
    total = x[..., 0] + x[..., 1]
    for p in range(2, dims):
        total += x[..., p]
    return total


@dataclass(frozen=True)
class BoundResult:
    """Value of a DTW lower bound, with an early-abandon flag.

    When `abandoned` is true the value is a valid partial sum that already
    exceeds the threshold the computation was given; it is still a lower
    bound of the full bound value (all summands are nonnegative).
    """

    value: float
    abandoned: bool = False


def sum_with_abandon(per_point: np.ndarray, abandon_above: float | None) -> BoundResult:
    """Sequentially sum nonnegative per-point contributions, stopping at the
    first prefix that exceeds `abandon_above`.

    The sequential (cumulative) summation order is shared by every bound in
    the package; per-point dominance between two bounds then carries over to
    their summed values exactly, with no floating-point order effects.
    """
    cs = np.cumsum(per_point)
    total = float(cs[-1])
    if abandon_above is not None and total > abandon_above:
        k = int(np.argmax(cs > abandon_above))
        return BoundResult(float(cs[k]), True)
    return BoundResult(total, False)


_GRID_E_TI = (0.05, 0.1, 0.2)
_GRID_E_PC = (0.1, 0.5)
_GRID_LEVELS = (2, 3)


@dataclass(frozen=True)
class SearchParams:
    """All tunables of the bounded nearest-neighbor search.

    window          warping window size W >= 0 (capped at n-1 when applied)
    method          search strategy (see Method)
    refresh_period  period of true-distance refreshes in the periodic
                    triangle bound (>= 1)
    trigger_ti      triggering threshold for the triangle bound, in (0, 1)
    trigger_pc      triggering threshold for the clustering bound, in (0, 1)
    quant_levels    quantization level: cells per dimension (>= 1)
    max_boxes       cap on bounding boxes per expanded window (>= 1)
    group_width     window expansion factor for box grouping (>= 1)
    min_cell_frac   smallest cell length, as a fraction of the dataset's
                    normalized per-dimension value range
    dims_used       "all" or a positive dimension count to keep
    """

    window: int
    method: Method = Method.TC_DTW
    refresh_period: int = 5
    trigger_ti: float = 0.1
    trigger_pc: float = 0.1
    quant_levels: int = 2
    max_boxes: int = 6
    group_width: int = 6
    min_cell_frac: float = 0.00001
    dims_used: int | str = "all"

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        if self.window < 0:
            raise InvalidInputError("window must be >= 0")
        if self.refresh_period < 1:
            raise InvalidInputError("refresh_period must be >= 1")
        for name in ("trigger_ti", "trigger_pc"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise InvalidInputError(f"{name} must be in (0, 1)")
        if self.quant_levels < 1 or self.max_boxes < 1 or self.group_width < 1:
            raise InvalidInputError("quant_levels, max_boxes and group_width must be >= 1")
        if self.min_cell_frac <= 0.0:
            raise InvalidInputError("min_cell_frac must be > 0")
        if self.dims_used != "all" and (not isinstance(self.dims_used, int) or self.dims_used < 1):
            raise InvalidInputError('dims_used must be "all" or a positive integer')

    def effective_window(self, n: int) -> int:
        return min(self.window, n - 1)


def default_grids() -> dict:
    """Parameter grids searched during tuning."""
    return {
        "trigger_ti": list(_GRID_E_TI),
        "trigger_pc": list(_GRID_E_PC),
        "quant_levels": list(_GRID_LEVELS),
    }
