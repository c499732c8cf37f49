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
import csv
import io
import json
import numbers
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, fields

from .core import InvalidInputError, Method, SearchParams
from .ingest import Dataset, ParseError, normalize, parse_native, parse_ts_subset, split, truncate_dims
from .search import (
    DEPLOYED, TUNED_FIELDS, nn_search, selection_sample, tc_dtw_select, tune_params, verify_bounds,
)

QUERY_FRAC = 0.3  # share of each dataset's series searched as queries
# RunReport fields rounded in every output, and their digits
_ROUND_DIGITS = {"skip_pct": 4, "speedup": 4, "ideal_speedup": 4,
                 "lb_time_s": 6, "dtw_time_s": 6, "total_time_s": 6}
# RunReport fields that are the NnOutcome field of the same name, summed over queries
_SUMMED_COUNTERS = ("dtw_computed", "dtw_skipped", "lb_mv_evals", "advanced_lb_evals",
                    "work", "dtw_swept")
# The params column's name for each tuned SearchParams field
_FIELD_LABELS = {"trigger_ti": "e_ti", "trigger_pc": "e_pc", "quant_levels": "L"}


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


def run_benchmark(config: BenchConfig) -> list[RunReport]:
    """Run every configured combination and return one report per cell.

    Every configuration problem raises ConfigError here, before any search."""
    for name in ("data", "methods", "windows", "dims"):
        if not getattr(config, name):
            raise ConfigError(f"no {name} given")
    for name, least in (("reps", 1), ("seed", 0)):
        value = getattr(config, name)
        if not isinstance(value, numbers.Integral) or value < least:
            raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
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
                    verify_bounds(queries, candidates, base_params, ds.dim_ranges)
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
    advanced, label = None, method.value
    if method == Method.TC_DTW:
        # the pick, then every option's sample cost: why it was picked
        sq, sc = selection_sample(queries, candidates, config.seed)
        log = []
        advanced = tc_dtw_select(sq, sc, params, dim_range=ds.dim_ranges, log=log)
        label = " ".join([f"{method.value}({advanced.value})",
                          *(f"cost({adv.value})={cost:.10g}" for adv, _, cost in log)])
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
    """The params column: `label`, then, for a method that deploys an
    advanced bound, the fields tuned for its bounds and the fixed
    constants."""
    tuned = [f for adv in DEPLOYED[params.method] for f in TUNED_FIELDS[adv]]
    if not tuned:
        return label
    return " ".join([label, *(f"{_FIELD_LABELS[f]}={getattr(params, f)}" for f in tuned),
                     f"P={params.refresh_period} K={params.max_boxes} w={params.group_width}"])


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}".rstrip("0").rstrip(".") if value == value else ""
    return str(value)


def emit_report(reports: list[RunReport], fmt: str = "csv", meta: dict | None = None) -> str:
    """Render reports as csv, json, or a human-readable table."""
    meta = meta or {}
    if fmt == "csv":
        out = io.StringIO()
        out.writelines(f"# {k}: {v}\n" for k, v in meta.items())
        writer = csv.writer(out, lineterminator="\n")  # quotes a field holding a comma
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_fmt_cell(r.row()[c]) for c in CSV_COLUMNS] for r in reports)
        return out.getvalue()
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
    p.add_argument("--format", dest="fmt", choices=["native", "ts"])
    p.add_argument("--method", dest="methods", nargs="+", choices=[m.value for m in Method])
    p.add_argument("--window", dest="windows", metavar="WINDOW", nargs="+", type=int)
    p.add_argument("--dims", nargs="+", help='dimension counts to keep, or "all"')
    p.add_argument("--seed", type=int)
    p.add_argument("--reps", type=int)
    tune = p.add_mutually_exclusive_group()
    tune.add_argument("--tune", dest="tune", action="store_true")
    tune.add_argument("--no-tune", dest="tune", action="store_false")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--emit", choices=["csv", "table", "json"])
    p.add_argument("--verify", action="store_true",
                   help="check bound soundness on a data subsample before running")
    # BenchConfig owns every default (set_defaults reaches the arguments above)
    p.set_defaults(**vars(BenchConfig(data=[])))
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
