"""Benchmark CLI: DTW nearest-neighbor runs with bound filtering, reported
as CSV / JSON / a human-readable table.

For every (dataset, method, window, dims) combination the runner tunes the
method on a seeded sample (when tuning is enabled), searches the nearest
candidate for every query, and reports the skip rate plus the speedup
against the plain windowed-DTW scan (method `none`, run implicitly as the
baseline when not requested itself).  Counters are deterministic for a fixed
config and seed; wall times are not.

Exit codes: 0 success, 1 configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

from .core import InvalidInputError, Method, SearchParams
from .dtw import dtw_banded
from .ingest import Dataset, ParseError, normalize, parse_native, parse_ts_subset, split, truncate_dims
from .lb_mv import build_envelope, lb_ad, lb_mv
from .lb_pc import build_box_sets, lb_pc
from .lb_ti import lb_ti
from .search import nn_search, selection_sample, tc_dtw_select, tune_params

QUERY_FRAC = 0.3  # share of each dataset's series searched as queries
# RunReport fields rounded in every output, and their digits
_ROUND_DIGITS = {"skip_pct": 4, "speedup": 4, "ideal_speedup": 4,
                 "lb_time_s": 6, "dtw_time_s": 6, "total_time_s": 6}
# RunReport fields that are the NnOutcome field of the same name, summed over queries
_SUMMED_COUNTERS = ("dtw_computed", "dtw_skipped", "lb_mv_evals", "advanced_lb_evals",
                    "work", "dtw_swept")


class ConfigError(ValueError):
    """The benchmark configuration is invalid."""


@dataclass
class RunReport:
    """One benchmark result row (one dataset/method/window/dims cell); the
    field order is the column order of every output."""

    dataset: str
    method: str
    window: int
    dims: int
    skip_pct: float
    speedup: float
    ideal_speedup: float
    dtw_computed: int
    dtw_skipped: int
    lb_time_s: float
    dtw_time_s: float
    total_time_s: float
    seed: int
    lb_mv_evals: int = 0
    advanced_lb_evals: int = 0
    params: str = ""
    work: float = 0.0
    dtw_swept: int = 0

    def row(self) -> dict:
        return {k: round(v, _ROUND_DIGITS[k]) if k in _ROUND_DIGITS else v
                for k, v in asdict(self).items()}


CSV_COLUMNS = [f.name for f in fields(RunReport)]


@dataclass
class BenchConfig:
    data: list[str]
    fmt: str = "native"
    methods: list[Method] = field(default_factory=lambda: [Method.TC_DTW])
    windows: list[int] = field(default_factory=lambda: [10, 20])
    dims: list = field(default_factory=lambda: ["all"])
    seed: int = 42
    reps: int = 10
    tune: bool = True
    emit: str = "csv"
    out: str | None = None
    verify: bool = False


def _load(path: str, fmt: str) -> Dataset:
    if fmt == "native":
        return normalize(parse_native(path))
    if fmt == "ts":
        return normalize(parse_ts_subset(path))
    raise ConfigError(f"unknown format {fmt!r}")


def _verify_soundness(queries, candidates, params: SearchParams, dim_range) -> None:
    """Check every bound against exact DTW on a data subsample; raise on any
    violation.  Used by --verify."""
    n = queries[0].shape[0]
    w = params.effective_window(n)
    qs = queries[: min(3, len(queries))]
    cs = candidates[: min(8, len(candidates))]
    for qi, q in enumerate(qs):
        env = build_envelope(q, w)
        boxes = build_box_sets(q, w, params.group_width, params.quant_levels,
                               params.max_boxes, params.min_cell_frac, dim_range)
        for ci, c in enumerate(cs):
            exact = dtw_banded(q, c, w).distance
            checks = {
                "lb_mv": lb_mv(c, env).value,
                "lb_ad": lb_ad(q, c, w).value,
                "lb_ti": lb_ti(q, c, w, refresh_period=params.refresh_period).value,
                "lb_pc": lb_pc(c, boxes).value,
            }
            for name, value in checks.items():
                if value > exact:
                    raise InvalidInputError(
                        f"soundness violation: {name}={value!r} exceeds dtw={exact!r} "
                        f"(query {qi}, candidate {ci})"
                    )


def run_benchmark(config: BenchConfig) -> list[RunReport]:
    """Run every configured combination and return one report per cell.

    Every configuration problem raises ConfigError here, before any search."""
    for name in ("data", "methods", "windows", "dims"):
        if not getattr(config, name):
            raise ConfigError(f"no {name} given")
    if config.reps < 1:
        raise ConfigError("reps must be >= 1")
    if not isinstance(config.seed, numbers.Integral) or config.seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {config.seed!r}")
    if not all(isinstance(w, numbers.Integral) and w >= 0 for w in config.windows):
        raise ConfigError(f"windows must be integers >= 0, got {config.windows}")
    try:
        methods = [Method(m) for m in config.methods]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    dims = []
    for d in config.dims:
        try:
            dims.append(d if d == "all" else int(d))
        except (TypeError, ValueError):
            raise ConfigError(f'dims expects integers or "all", got {d!r}') from None
    for path in config.data:
        if not os.path.exists(path):
            raise ConfigError(f"no such file: {path}")
    loaded = [_load(path, config.fmt) for path in config.data]
    for ds_full in loaded:
        for d in dims:
            if d != "all" and not 1 <= d <= ds_full.dims:
                raise ConfigError(f"dims={d} out of range for {ds_full.name} (D={ds_full.dims})")

    reports: list[RunReport] = []
    for ds_full in loaded:
        for d in dims:
            ds = ds_full if d == "all" else truncate_dims(ds_full, d)
            queries_ds, cands_ds = split(ds, QUERY_FRAC, config.seed)
            queries = queries_ds.series_list()
            candidates = cands_ds.series_list()
            for window in config.windows:
                base_params = SearchParams(window=window, method=Method.NONE)
                if config.verify:
                    _verify_soundness(queries, candidates,
                                      replace(base_params, method=Method.TC_DTW),
                                      ds.dim_ranges)
                baseline = _measure(queries, candidates, base_params, None,
                                    ds.dim_ranges, config.reps)
                for method in methods:
                    reports.append(
                        _run_cell(config, ds, queries, candidates, method, window, baseline)
                    )
    return reports


def _measure(queries, candidates, params, advanced, dim_range, reps) -> tuple[list, float]:
    """Search every query `reps` times, one after another; returns the first
    pass's outcomes and the mean wall time of all passes."""
    runs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        outcomes = [nn_search(q, candidates, params, advanced=advanced, dim_range=dim_range)
                    for q in queries]
        runs.append((outcomes, time.perf_counter() - t0))
    return runs[0][0], sum(wall for _, wall in runs) / reps


def _run_cell(config, ds, queries, candidates, method, window, baseline) -> RunReport:
    params = SearchParams(window=window, method=method)
    if config.tune:  # returns `none` and `lb_mv` params unchanged
        params = tune_params(queries, candidates, params, seed=config.seed,
                             dim_range=ds.dim_ranges)
    advanced = None
    if method == Method.TC_DTW:
        sq, sc = selection_sample(queries, candidates, config.seed)
        advanced = tc_dtw_select(sq, sc, params, dim_range=ds.dim_ranges)
    if method == Method.NONE:
        outcomes, wall = baseline
    else:
        outcomes, wall = _measure(queries, candidates, params, advanced, ds.dim_ranges,
                                  config.reps)

    sums = {name: sum(getattr(o, name) for o in outcomes) for name in _SUMMED_COUNTERS}
    lb_time = sum(o.lb_time for o in outcomes)
    # Per-query search times on both sides, with this method's bound time
    # taken out: the speedup its pruning would give if bounds cost nothing.
    base_outcomes, base_wall = baseline
    base_sum = sum(o.total_time for o in base_outcomes)
    own_sum = sum(o.total_time for o in outcomes)
    label = method.value if advanced is None else f"{method.value}({advanced.value})"
    return RunReport(
        dataset=ds.name,
        method=method.value,
        window=window,
        dims=ds.dims,
        skip_pct=100.0 * sums["dtw_skipped"] / (sums["dtw_computed"] + sums["dtw_skipped"]),
        speedup=base_wall / wall,
        ideal_speedup=base_sum / max(own_sum - lb_time, 1e-12),
        lb_time_s=lb_time,
        dtw_time_s=sum(o.dtw_time for o in outcomes),
        total_time_s=wall,
        seed=config.seed,
        params=_describe_params(params, label),
        **sums,
    )


def _describe_params(params: SearchParams, label: str) -> str:
    if params.method in (Method.NONE, Method.LB_MV):
        return label
    bits = [label]
    if params.method in (Method.LB_TI, Method.LB_AD, Method.TC_DTW):
        bits.append(f"e_ti={params.trigger_ti}")
    if params.method in (Method.LB_PC, Method.TC_DTW):
        bits.append(f"e_pc={params.trigger_pc} L={params.quant_levels}")
    bits.append(f"P={params.refresh_period} K={params.max_boxes} w={params.group_width}")
    return " ".join(bits)


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}".rstrip("0").rstrip(".") if value == value else ""
    return str(value)


def emit_report(reports: list[RunReport], fmt: str = "csv", meta: dict | None = None) -> str:
    """Render reports as csv, json, or a human-readable table."""
    meta = meta or {}
    if fmt == "csv":
        lines = [f"# {k}: {v}" for k, v in meta.items()]
        lines.append(",".join(CSV_COLUMNS))
        for r in reports:
            row = r.row()
            lines.append(",".join(_fmt_cell(row[c]) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps({"meta": meta, "rows": [r.row() for r in reports]}, indent=2) + "\n"
    if fmt == "table":
        rows = [[_fmt_cell(r.row()[c]) for c in CSV_COLUMNS] for r in reports]
        widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
                  for i, h in enumerate(CSV_COLUMNS)]
        out = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(CSV_COLUMNS)),
            "  ".join("-" * width for width in widths),
        ]
        for row in rows:
            out.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if meta:
            out.append("")
            out.extend(f"{k}: {v}" for k, v in meta.items())
        return "\n".join(out) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; config errors are 1
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mvdtw-bench", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--data", nargs="+", required=True, help="dataset file(s)")
    p.add_argument("--format", dest="fmt", choices=["native", "ts"], default="native")
    p.add_argument("--method", dest="methods", nargs="+", default=["tc_dtw"],
                   choices=[m.value for m in Method])
    p.add_argument("--window", dest="windows", metavar="WINDOW", nargs="+", type=int,
                   default=[10, 20])
    p.add_argument("--dims", nargs="+", default=["all"],
                   help='dimension counts to keep, or "all"')
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--reps", type=int, default=10)
    tune = p.add_mutually_exclusive_group()
    tune.add_argument("--tune", dest="tune", action="store_true", default=True)
    tune.add_argument("--no-tune", dest="tune", action="store_false")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--emit", choices=["csv", "table", "json"], default="csv")
    p.add_argument("--verify", action="store_true",
                   help="check bound soundness on a data subsample before running")
    return p


def main(argv=None) -> int:
    try:
        config = BenchConfig(**vars(build_parser().parse_args(argv)))
        if config.out and (os.path.isdir(config.out)
                           or not os.path.isdir(os.path.dirname(os.path.abspath(config.out)))):
            raise ConfigError(f"--out is not a file in an existing directory: {config.out}")
        reports = run_benchmark(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, InvalidInputError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    meta = {
        "host": platform.node() or "unknown",
        "platform": platform.platform(),
        "reps": config.reps,
        "seed": config.seed,
    }
    text = emit_report(reports, config.emit, meta)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
