"""Dataset loading, normalization, dimension truncation, and splitting.

Two on-disk formats are supported:

* The native MTS text format: first content line `<num_series> <length>
  <dims>`, then num_series blocks of `length` lines, each line holding
  `dims` space-separated decimal values.  Lines starting with `#` are
  comments.  Missing values may be written as `NA`, `NaN`, or `?`.
* A subset of the sktime `.ts` layout: `@`-prefixed header directives, then
  `@data`, then one series per line with dimensions separated by `:` and
  values by `,`; the class label or regression target after the final `:`
  (declared by `@classLabel true` or `@targetLabel true`) is dropped.
  Files declaring unequal lengths or timestamps are rejected.

Missing values become raw zeros before normalization statistics are
computed; they participate in the statistics as zeros.  Infinite values
(`inf`, or a literal beyond the float range such as `1e999`) and malformed
`.ts` directives raise ParseError naming their line.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .core import InvalidInputError, as_int

_MISSING_TOKENS = {"na", "nan", "?"}


class ParseError(ValueError):
    """A data file could not be parsed; the message names the offending line."""


@dataclass(frozen=True, eq=False)
class RawDataset:
    """Parsed series values, missing entries still marked with NaN."""

    name: str
    values: np.ndarray  # (num_series, length, dims), NaN = missing


@dataclass(frozen=True, eq=False)
class Dataset:
    """Finalized collection of equal-length, equal-dimension series.

    `dim_ranges` holds the observed per-dimension value range (max - min over
    every point of every series) in the dataset's current scale; the
    clustering bound measures its minimum cell size against it.
    """

    name: str
    values: np.ndarray  # (num_series, length, dims)
    dim_ranges: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 3 or v.shape[0] < 1 or v.shape[1] < 1 or v.shape[2] < 1:
            raise InvalidInputError(f"dataset values must be (S, n, D), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("dataset contains non-finite values")

    @property
    def num_series(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    @property
    def dims(self) -> int:
        return self.values.shape[2]

    def series_list(self) -> list[np.ndarray]:
        return [self.values[i] for i in range(self.num_series)]


def _parse_value(token: str, path: str, line_no: int) -> float:
    if token.lower() in _MISSING_TOKENS:
        return float("nan")
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"{path}, line {line_no}: non-numeric token {token!r}") from None
    if math.isinf(value):
        raise ParseError(f"{path}, line {line_no}: non-finite value {token!r}")
    return value


def parse_native(path) -> RawDataset:
    """Parse the native MTS text format."""
    path = os.fspath(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    content = [(no, ln) for no, ln in enumerate(map(str.strip, lines), start=1)
               if ln and not ln.startswith("#")]
    if not content:
        raise ParseError(f"{path}: empty file")
    head_no, head = content[0]
    parts = head.split()
    if len(parts) != 3:
        raise ParseError(f"{path}, line {head_no}: header must be '<num_series> <length> <dims>'")
    try:
        num_series, length, dims = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"{path}, line {head_no}: non-integer header field") from None
    if num_series < 1 or length < 1 or dims < 1:
        raise ParseError(f"{path}, line {head_no}: header fields must be positive")
    rows = content[1:]
    if len(rows) != num_series * length:
        raise ParseError(
            f"{path}: expected {num_series * length} value lines, found {len(rows)}"
        )
    # numpy's C reader: a token it takes gets the bits float() gives it.
    # max_rows makes it allocate the values once, at their size; the buffer
    # it otherwise grows line by line left the search's later temporaries
    # page-faulting.
    try:
        values = np.loadtxt((ln for _, ln in rows), np.float64, comments=None, ndmin=2,
                            max_rows=len(rows))
        named = values.shape != (len(rows), dims) or np.isinf(values).any()
    except ValueError:
        named = True
    if named:  # a missing value, a token only float() takes, or a line to name
        values = np.empty((len(rows), dims))
        for r, (no, ln) in enumerate(rows):
            tokens = ln.split()
            if len(tokens) != dims:
                raise ParseError(f"{path}, line {no}: expected {dims} values, found {len(tokens)}")
            values[r] = [_parse_value(t, path, no) for t in tokens]
    name = os.path.splitext(os.path.basename(path))[0]
    return RawDataset(name, values.reshape(num_series, length, dims))


def write_native(ds: Dataset | RawDataset, path) -> None:
    """Write a dataset in the native MTS text format (floats via repr, so a
    parse round-trip reproduces values exactly)."""
    path = os.fspath(path)
    vals = ds.values
    s, n, d = vals.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{s} {n} {d}\n")
        for si in range(s):
            for t in range(n):
                fh.write(" ".join(repr(float(x)) for x in vals[si, t]) + "\n")


def _ts_bool(token: str, path: str, line_no: int) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise ParseError(f"{path}, line {line_no}: expected true/false, got {token!r}")


def _ts_int(token: str, path: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{path}, line {line_no}: expected an integer, got {token!r}") from None


_TS_VALUED = {"timestamps", "equallength", "dimension", "dimensions", "serieslength", "classlabel",
              "targetlabel"}
_TS_KNOWN = {
    "problemname", "timestamps", "missing", "univariate", "dimension",
    "dimensions", "equallength", "serieslength", "classlabel", "targetlabel",
    "data",
}


def parse_ts_subset(path) -> RawDataset:
    """Parse the supported subset of the sktime `.ts` format.

    Unequal-length files, timestamped files, and unknown directives are
    rejected; `?` tokens become missing values.
    """
    path = os.fspath(path)
    name = os.path.basename(path)
    for suffix in (".ts", ".txt"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    declared_dims = None
    declared_len = None
    labelled = False  # each data line ends in a class label or regression target
    in_data = False
    series_rows: list[np.ndarray] = []
    with open(path, encoding="utf-8") as fh:
        for no, raw_line in enumerate(fh, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("@"):
                if in_data:
                    raise ParseError(f"{path}, line {no}: directive after @data")
                tokens = line[1:].split() or [""]
                key = tokens[0].lower()
                if key not in _TS_KNOWN:
                    raise ParseError(f"{path}, line {no}: unsupported directive @{tokens[0]}")
                if key in _TS_VALUED and len(tokens) < 2:
                    raise ParseError(f"{path}, line {no}: @{tokens[0]} needs a value")
                if key == "data":
                    in_data = True
                elif key == "timestamps":
                    if _ts_bool(tokens[1], path, no):
                        raise ParseError(f"{path}, line {no}: timestamped files are not supported")
                elif key == "equallength":
                    if not _ts_bool(tokens[1], path, no):
                        raise ParseError(f"{path}, line {no}: unequal-length series are not supported")
                elif key in ("dimension", "dimensions"):
                    declared_dims = _ts_int(tokens[1], path, no)
                elif key == "serieslength":
                    declared_len = _ts_int(tokens[1], path, no)
                elif key in ("classlabel", "targetlabel"):
                    labelled = _ts_bool(tokens[1], path, no) or labelled
                elif key == "problemname" and len(tokens) > 1:
                    name = tokens[1]
                continue
            if not in_data:
                raise ParseError(f"{path}, line {no}: data before @data directive")
            segments = line.split(":")
            if labelled:
                if len(segments) < 2:
                    raise ParseError(f"{path}, line {no}: missing label")
                segments = segments[:-1]
            dims = len(segments)
            if declared_dims is not None and dims != declared_dims:
                raise ParseError(
                    f"{path}, line {no}: expected {declared_dims} dimensions, found {dims}"
                )
            cols = []
            for seg in segments:
                tokens = [t.strip() for t in seg.split(",")]
                cols.append([_parse_value(t, path, no) for t in tokens])
            lengths = {len(c) for c in cols}
            if len(lengths) != 1:
                raise ParseError(f"{path}, line {no}: ragged dimensions within one series")
            length = lengths.pop()
            if declared_len is not None and length != declared_len:
                raise ParseError(
                    f"{path}, line {no}: expected length {declared_len}, found {length}"
                )
            if series_rows and series_rows[0].shape != (length, dims):
                raise ParseError(f"{path}, line {no}: series shape differs from earlier series")
            series_rows.append(np.asarray(cols, dtype=np.float64).T)
    if not series_rows:
        raise ParseError(f"{path}: no data lines")
    return RawDataset(name, np.stack(series_rows))


def _observed_ranges(values: np.ndarray) -> np.ndarray:
    flat = values.reshape(-1, values.shape[2])
    return flat.max(axis=0) - flat.min(axis=0)


def normalize(ds: RawDataset | Dataset) -> Dataset:
    """Z-normalize per dimension over every point of every series.

    Missing values are replaced with raw zeros first and enter the statistics
    as zeros.  Zero-variance dimensions map to all-zeros.  The observed
    post-normalization per-dimension ranges are recorded for the clustering
    bound's minimum cell size.
    """
    vals = np.asarray(ds.values, dtype=np.float64)
    vals = np.where(np.isnan(vals), 0.0, vals)
    flat = vals.reshape(-1, vals.shape[2])
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    safe = np.where(std > 0.0, std, 1.0)
    normed = (vals - mean) / safe
    normed[..., std == 0.0] = 0.0
    return Dataset(ds.name, normed, _observed_ranges(normed))


def truncate_dims(ds: Dataset, dims_used: int) -> Dataset:
    """Keep the first `dims_used` dimensions of every point."""
    dims_used = as_int(dims_used, "dims_used", 1)
    if dims_used > ds.dims:
        raise InvalidInputError(f"dims_used must be in [1, {ds.dims}], got {dims_used}")
    if dims_used == ds.dims:
        return ds
    return Dataset(ds.name, np.ascontiguousarray(ds.values[:, :, :dims_used]),
                   ds.dim_ranges[:dims_used].copy())


def split(ds: Dataset, query_frac: float = 0.3, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Deterministically split a dataset into (queries, candidates).

    A seeded shuffle selects round(S * query_frac) query series; both sides
    keep their original file order.
    """
    if not (isinstance(query_frac, Real) and 0.0 < query_frac < 1.0):
        raise InvalidInputError(f"query_frac must be a number in (0, 1), got {query_frac!r}")
    seed = as_int(seed, "seed", 0)
    s = ds.num_series
    k = int(round(s * query_frac))
    if k < 1 or k >= s:
        raise InvalidInputError(f"split of {s} series at {query_frac} leaves an empty side")
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.permutation(s)[:k])
    mask = np.zeros(s, dtype=bool)
    mask[chosen] = True
    queries = Dataset(f"{ds.name}/queries", ds.values[mask].copy(), ds.dim_ranges)
    cands = Dataset(f"{ds.name}/candidates", ds.values[~mask].copy(), ds.dim_ranges)
    return queries, cands
