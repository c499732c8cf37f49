"""Multivariate DTW nearest-neighbor search with cascaded lower bounds."""

from .core import (
    BoundResult,
    InvalidInputError,
    Method,
    MultivariateSeries,
    SearchParams,
)
from .dtw import DtwResult, dtw_banded
from .ingest import (
    Dataset,
    ParseError,
    RawDataset,
    finalize,
    normalize,
    parse_native,
    parse_ts_subset,
    split,
    truncate_dims,
    write_native,
)
from .lb_mv import build_envelope, lb_ad, lb_mv
from .lb_pc import BoxGrouping, build_box_sets, lb_pc
from .lb_ti import NeighborDistances, lb_ti, neighbor_steps
from .search import NnOutcome, nn_search, tc_dtw_select, tune_params

__all__ = [
    "BoundResult", "BoxGrouping", "Dataset", "DtwResult",
    "InvalidInputError", "Method", "MultivariateSeries", "NeighborDistances",
    "NnOutcome", "ParseError", "RawDataset", "SearchParams",
    "build_box_sets", "build_envelope", "dtw_banded", "finalize", "lb_ad", "lb_mv",
    "lb_pc", "lb_ti", "neighbor_steps", "nn_search", "normalize", "parse_native",
    "parse_ts_subset", "split", "tc_dtw_select", "truncate_dims", "tune_params",
    "write_native",
]
