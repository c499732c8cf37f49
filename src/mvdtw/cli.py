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
import os
import platform
import sys
import time
from dataclasses import dataclass, field, replace

from .core import InvalidInputError, Method, SearchParams
from .dtw import dtw_banded
from .ingest import Dataset, ParseError, normalize, parse_native, parse_ts_subset, split, truncate_dims
from .lb_mv import build_envelope, lb_ad, lb_mv
from .lb_pc import build_box_sets, lb_pc
from .lb_ti import lb_ti
from .search import nn_search, selection_sample, tc_dtw_select, tune_params

CSV_COLUMNS = [
    "dataset", "method", "window", "dims", "skip_pct", "speedup", "ideal_speedup",
    "dtw_computed", "dtw_skipped", "lb_time_s", "dtw_time_s", "total_time_s", "seed",
    "lb_mv_evals", "advanced_lb_evals", "abandon_count", "params", "work", "dtw_swept",
]
QUERY_FRAC = 0.3  # share of each dataset's series searched as queries


class ConfigError(ValueError):
    """The benchmark configuration is invalid."""


@dataclass
class RunReport:
    """One benchmark result row (one dataset/method/window/dims cell)."""

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
    abandon_count: int = 0
    params: str = ""
    work: float = 0.0
    dtw_swept: int = 0

    def row(self) -> dict:
        return {
            "dataset": self.dataset,
            "method": self.method,
            "window": self.window,
            "dims": self.dims,
            "skip_pct": round(self.skip_pct, 4),
            "speedup": round(self.speedup, 4),
            "ideal_speedup": round(self.ideal_speedup, 4),
            "dtw_computed": self.dtw_computed,
            "dtw_skipped": self.dtw_skipped,
            "lb_time_s": round(self.lb_time_s, 6),
            "dtw_time_s": round(self.dtw_time_s, 6),
            "total_time_s": round(self.total_time_s, 6),
            "seed": self.seed,
            "lb_mv_evals": self.lb_mv_evals,
            "advanced_lb_evals": self.advanced_lb_evals,
            "abandon_count": self.abandon_count,
            "params": self.params,
            "work": self.work,
            "dtw_swept": self.dtw_swept,
        }


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


@dataclass
class _MethodRun:
    outcomes: list
    wall_s: float


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
    """Run every configured combination and return one report per cell."""
    if not config.data:
        raise ConfigError("no dataset files given")
    if not config.methods:
        raise ConfigError("no methods given")
    if not config.windows:
        raise ConfigError("no window sizes given")
    if config.reps < 1:
        raise ConfigError("reps must be >= 1")
    methods = [Method(m) for m in config.methods]
    reports: list[RunReport] = []

    # Load and validate every combination up front, so configuration problems
    # surface before any benchmark work starts.
    loaded = [_load(path, config.fmt) for path in config.data]
    for ds_full in loaded:
        for dims_spec in config.dims:
            if dims_spec != "all" and not (1 <= int(dims_spec) <= ds_full.dims):
                raise ConfigError(
                    f"dims={dims_spec} out of range for {ds_full.name} (D={ds_full.dims})"
                )

    for ds_full in loaded:
        for dims_spec in config.dims:
            ds = ds_full if dims_spec == "all" else truncate_dims(ds_full, int(dims_spec))
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


def _measure(queries, candidates, params, advanced, dim_range, reps) -> _MethodRun:
    """Search every query `reps` times, one after another; keeps the first
    pass's outcomes and the mean wall time of all passes."""
    runs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        outcomes = [nn_search(q, candidates, params, advanced=advanced, dim_range=dim_range)
                    for q in queries]
        runs.append(_MethodRun(outcomes, time.perf_counter() - t0))
    return _MethodRun(runs[0].outcomes, sum(r.wall_s for r in runs) / reps)


def _run_cell(config, ds, queries, candidates, method, window, baseline) -> RunReport:
    params = SearchParams(window=window, method=method)
    advanced = None
    if method == Method.NONE:
        run = baseline
    else:
        if config.tune and method != Method.LB_MV:
            params = tune_params(queries, candidates, params, seed=config.seed,
                                 dim_range=ds.dim_ranges)
        if method == Method.TC_DTW:
            sq, sc = selection_sample(queries, candidates, config.seed)
            advanced = tc_dtw_select(sq, sc, params, dim_range=ds.dim_ranges)
        run = _measure(queries, candidates, params, advanced, ds.dim_ranges, config.reps)

    computed = sum(o.dtw_computed for o in run.outcomes)
    skipped = sum(o.dtw_skipped for o in run.outcomes)
    lb_time = sum(o.lb_time for o in run.outcomes)
    dtw_time = sum(o.dtw_time for o in run.outcomes)
    total = run.wall_s
    # Per-query search times on both sides, with this method's bound time
    # taken out: the speedup its pruning would give if bounds cost nothing.
    base_sum = sum(o.total_time for o in baseline.outcomes)
    own_sum = sum(o.total_time for o in run.outcomes)
    ideal = base_sum / max(own_sum - lb_time, 1e-12)
    label = method.value
    if advanced is not None:
        label = f"{method.value}({advanced.value})"
    return RunReport(
        dataset=ds.name,
        method=method.value,
        window=window,
        dims=ds.dims,
        skip_pct=100.0 * skipped / (computed + skipped),
        speedup=baseline.wall_s / total,
        ideal_speedup=ideal,
        dtw_computed=computed,
        dtw_skipped=skipped,
        lb_time_s=lb_time,
        dtw_time_s=dtw_time,
        total_time_s=total,
        seed=config.seed,
        lb_mv_evals=sum(o.lb_mv_evals for o in run.outcomes),
        advanced_lb_evals=sum(o.advanced_lb_evals for o in run.outcomes),
        abandon_count=sum(o.abandon_count for o in run.outcomes),
        params=_describe_params(params, label),
        work=sum(o.work for o in run.outcomes),
        dtw_swept=sum(o.dtw_swept for o in run.outcomes),
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
    p.add_argument("--format", choices=["native", "ts"], default="native")
    p.add_argument("--method", nargs="+", default=["tc_dtw"],
                   choices=[m.value for m in Method])
    p.add_argument("--window", nargs="+", type=int, default=[10, 20])
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


def config_from_args(args) -> BenchConfig:
    dims = []
    for d in args.dims:
        if d == "all":
            dims.append("all")
        else:
            try:
                dims.append(int(d))
            except ValueError:
                raise ConfigError(f'--dims expects integers or "all", got {d!r}') from None
    for w in args.window:
        if w < 0:
            raise ConfigError("--window must be >= 0")
    return BenchConfig(
        data=args.data,
        fmt=args.format,
        methods=[Method(m) for m in args.method],
        windows=args.window,
        dims=dims,
        seed=args.seed,
        reps=args.reps,
        tune=args.tune,
        emit=args.emit,
        out=args.out,
        verify=args.verify,
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    for path in config.data:
        if not os.path.exists(path):
            print(f"config error: no such file: {path}", file=sys.stderr)
            return 1
    if config.out and (os.path.isdir(config.out)
                       or not os.path.isdir(os.path.dirname(os.path.abspath(config.out)))):
        print(f"config error: --out is not a file in an existing directory: {config.out}",
              file=sys.stderr)
        return 1
    try:
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
