"""Shared domain types, parameter records, and the arithmetic rules every
bound and the search share.

Distance convention used throughout the package: the cost of aligning two
points is the plain (non-squared) Euclidean distance (`dtw.point_costs`), and
a DTW distance is the plain sum of point costs along the warping path.  The
non-squared form is a metric, which is what makes triangle-inequality bound
propagation sound.

Each arithmetic rule has one owner, which every bound and the search call, so
the no-tolerance invariants (every bound <= DTW, lb_mv <= lb_pc <= lb_ad, the
batched search equal to the one-pair scan) need no hand-kept copies: array
coercion `as_array`; series and pair checks `as_series`/`as_pair`; integer and
window checks `as_int`/`as_window`, the latter also the window cap of
`SearchParams.effective_window`; the search's one checked entry `search._scan`,
which checks each query and its range (`lb_pc.as_dim_range`) and stacks the
candidates, each a checked series, as their (D, n, C) plane set
(`search._stack_candidates`) before any sweep; the fixed bound constants,
SearchParams' class constants, which the per-pair lb_ti's default refresh
period reads; dimension-first point distances `dtw.point_costs` and
point-to-box distances `lb_pc.lb_pc_terms`, which lb_mv runs on the envelope's
one box per index; the banded DTW recurrence `dtw.dtw_rows`, which dtw_banded
runs on one candidate; the memory of each batched kernel, chunked along its
point axis within `BLOCK_FLOATS` by the kernel itself; every float total, over
dimensions, bound terms or work charges alike, `sequential_sums`, which adds
its leading axis left to right; the prune rule, pruning a candidate at the
first prefix of its bound terms above d_best, `search._prune_sums`; and the
cascade that applies it, at the diagonal-path bound before the sweep and at
the d_best each candidate meets after it, `search._cascade`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Real
from typing import ClassVar

import numpy as np

# Floats in the largest temporary of a chunk: every kernel takes all its
# candidates and chunks its point axis (rows, P-row blocks or anti-diagonals,
# one at least); the search also caps its DTW sweep's columns by it.
BLOCK_FLOATS = 1 << 15
# sequential_sums adds inputs of at least this many columns a plane at a time.
SUM_BY_PLANE_COLUMNS = 256


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


def as_array(x) -> np.ndarray:
    """Coerce a series-like object to a float64 array, a 1-D input becoming
    one (n, 1) column; shape and values are left to the caller.

    Raises InvalidInputError when `x` is not numeric or is ragged.
    """
    try:
        a = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"series is not numeric: {exc}") from None
    return a[:, None] if a.ndim == 1 else a


def as_series(x) -> np.ndarray:
    """Coerce a series-like object to a validated float64 array of shape (n, D).

    Accepts an (n, D) array or a 1-D array (treated as a univariate series).
    Raises InvalidInputError on non-numeric, ragged, empty or non-finite
    input.
    """
    a = as_array(x)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"series must be (n, D) with n>=1, D>=1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("series contains non-finite values")
    return a


def as_int(value, name: str, least: int) -> int:
    """`value` as an int >= `least`; 3 and 3.0 pass, 2.5 and "3" raise
    InvalidInputError."""
    try:
        if int(value) == value and value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInputError(f"{name} must be an integer >= {least}, got {value!r}")


def as_window(window, n: int) -> int:
    """A warping window checked by as_int (>= 0), capped at n - 1."""
    return min(as_int(window, "window", 0), n - 1)


def as_pair(q, c, window: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Validate a pair of equal-shape series and a window; returns both as
    (n, D) arrays and the window as as_window gives it."""
    qa = as_series(q)
    ca = as_series(c)
    if qa.shape != ca.shape:
        raise InvalidInputError(f"shape mismatch: {qa.shape} vs {ca.shape}")
    return qa, ca, as_window(window, qa.shape[0])


@dataclass(frozen=True)
class BoundResult:
    """Value of a DTW lower bound: the sum of its per-point terms."""

    value: float


def sequential_sums(x: np.ndarray) -> np.ndarray:
    """Totals over the leading axis, added left to right: the last of each
    column's prefix sums (np.cumsum).  numpy's axis sums leave their order
    open (they go pairwise on long or strided axes).  Few columns go to
    np.add.accumulate (np.cumsum without its wrapper's cost), many are added
    a plane at a time, in the same order.  A 1-D array is one column."""
    width = x.shape[0]
    if width < 2 or x.size < SUM_BY_PLANE_COLUMNS * width:
        return np.add.accumulate(x, axis=0)[-1]
    total = x[0] + x[1]
    for p in range(2, width):
        total += x[p]
    return total


@dataclass(frozen=True)
class SearchParams:
    """Parameters of the bounded nearest-neighbor search.

    Fields, chosen by the caller (window, method) or tuned on a sample by
    `search.tune_params` (the other three):
    window          warping window size W, an integer >= 0 (capped at n-1)
    method          search strategy (see Method)
    trigger_ti      triggering threshold for the triangle bound, in (0, 1)
    trigger_pc      triggering threshold for the clustering bound, in (0, 1)
    quant_levels    quantization level: cells per dimension, an integer >= 1

    Fixed constants, read from the class or any instance:
    refresh_period  period of true-distance refreshes in the periodic
                    triangle bound
    max_boxes       cap on bounding boxes per expanded window
    group_width     window expansion factor for box grouping
    min_cell_frac   smallest cell length, as a fraction of the dataset's
                    normalized per-dimension value range
    """

    window: int
    method: Method = Method.TC_DTW
    trigger_ti: float = 0.1
    trigger_pc: float = 0.1
    quant_levels: int = 2

    refresh_period: ClassVar[int] = 5
    max_boxes: ClassVar[int] = 6
    group_width: ClassVar[int] = 6
    min_cell_frac: ClassVar[float] = 0.00001

    def __post_init__(self):
        try:
            object.__setattr__(self, "method", Method(self.method))
        except ValueError:
            raise InvalidInputError(f"method must be one of {', '.join(Method)}, "
                                    f"got {self.method!r}") from None
        object.__setattr__(self, "window", as_int(self.window, "window", 0))
        for name in ("trigger_ti", "trigger_pc"):
            v = getattr(self, name)
            if not (isinstance(v, Real) and 0.0 < v < 1.0):
                raise InvalidInputError(f"{name} must be a number in (0, 1), got {v!r}")
        object.__setattr__(self, "quant_levels", as_int(self.quant_levels, "quant_levels", 1))

    def effective_window(self, n: int) -> int:
        return as_window(self.window, n)

