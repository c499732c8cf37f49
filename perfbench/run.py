#!/usr/bin/env python3
"""Benchmark of mvdtw nearest-neighbour search: throughput, latency, set-up.

    python3 perfbench/run.py --workload clustered-w10 --seed 42 --seconds 30 --trace 0

One process and one caller, with BLAS/OpenMP threads pinned to 1.  A run
generates its workload from the seed with `mvdtw.synth`, writes it as a native
`.mts` file into a temporary directory inside the checkout, and follows the
user path through the public API: `parse_native` -> `normalize` -> `split`
-> `tune_params` / `tc_dtw_select` -> one `nn_search` per query and method.
The set-up is repeated three times and its median reported.  Every time is
speed-normalised against a reference kernel timed around it (refclock.py);
the raw figures go into the metadata line.

A pass sends every query, one at a time (a closed loop), through each of the
methods `none`, `lb_ti`, `tc_dtw` and `lb_ad`, rotating which method goes
first.  With `--trace 0` passes repeat while another one fits in `--seconds`
(at least one) and the end-to-end metrics are printed.  With `--trace 1` the
run makes one untraced and one traced pass (see spans.py), adds a per-pair
microbenchmark of each layer, and prints the per-layer metrics.

Checks, any failure of which makes the result `"correct": false`:
* every search returns `(best_index, best_distance)` bit-identical to the
  plain scan `none` for the same query; a search that raises or differs is
  counted in `failed`;
* the `NnOutcome` counters are identical across passes (traced or not), and
  the tuned parameters and selected bound across set-ups;
* in a traced run, wrapper call counts equal the `NnOutcome` sums, and no
  bound in the pair sample exceeds its exact DTW distance.

The line before the last on stdout is run metadata; the last is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from refclock import ReferenceClock, Stopwatch
from spans import Tracer, installed
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

METHODS = ("none", "lb_ti", "tc_dtw", "lb_ad")
TUNED = ("lb_ti", "tc_dtw", "lb_ad")
SETUP_REPS = 3
QUERY_FRAC = 0.5
# tc_dtw_select's sample: the sizes and seeded draw mvdtw-bench uses.
SELECT_QUERIES, SELECT_CANDIDATES = 8, 23
PAIR_QUERIES, PAIR_CANDIDATES, PAIR_REPS = 6, 8, 3
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark cannot run at all; no result is printed."""


def load_library():
    """Pin native thread pools to 1, then import mvdtw from this checkout."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "mvdtw" / "__init__.py").is_file():
        raise BenchError(f"mvdtw sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import mvdtw

    if Path(mvdtw.__file__).resolve().parent != (SRC / "mvdtw").resolve():
        raise BenchError(f"imported mvdtw from {mvdtw.__file__}, not from {SRC}")
    return mvdtw


@dataclass
class Setup:
    queries: list
    candidates: list
    dim_range: object
    window: int
    params: dict  # method name -> SearchParams
    advanced: object  # the bound tc_dtw_select chose
    tune_runs: int
    fingerprint: str  # tuned parameters, tuning costs and selection
    times: dict  # normalised seconds: parse, normalize, split, tune, select, total


def _sample(items: list, size: int, rng) -> list:
    if len(items) <= size:
        return list(items)
    idx = rng.choice(len(items), size=size, replace=False)
    return [items[i] for i in sorted(idx)]


def set_up(mv, clock: ReferenceClock, path: Path, window: int, seed: int) -> Setup:
    import numpy as np

    watch = Stopwatch(clock)
    raw = watch.time("parse", mv.parse_native, path)
    ds = watch.time("normalize", mv.normalize, raw)
    queries, candidates = watch.time(
        "split", lambda: [d.series_list() for d in mv.split(ds, QUERY_FRAC, seed)])
    params = {"none": mv.SearchParams(window=window, method="none")}
    log: list = []
    for m in TUNED:
        params[m] = watch.time(
            "tune", mv.tune_params, queries, candidates, mv.SearchParams(window=window, method=m),
            seed=seed, dim_range=ds.dim_ranges, log=log,
        )

    def select():
        rng = np.random.default_rng(seed)
        sq = _sample(queries, SELECT_QUERIES, rng)
        sc = _sample(candidates, SELECT_CANDIDATES, rng)
        return mv.tc_dtw_select(sq, sc, params["tc_dtw"], dim_range=ds.dim_ranges)

    advanced = watch.time("select", select)
    fingerprint = repr((sorted(params.items()), advanced, log))
    times = {k: watch.total(k) for k in ("parse", "normalize", "split", "tune", "select")}
    times["total"] = watch.total()
    return Setup(queries, candidates, ds.dim_ranges, window, params, advanced,
                 len(log), fingerprint, times)


@dataclass
class Pass:
    latency: dict  # method -> normalised seconds per query, in query order
    outcomes: dict  # method -> NnOutcome per query, None where the search raised
    errors: list
    watch: Stopwatch  # one interval per search, in call order


def run_pass(mv, s: Setup, clock: ReferenceClock, tracer: Tracer | None = None) -> Pass:
    watch = Stopwatch(clock)
    outcomes = {m: [] for m in METHODS}
    errors = []

    def search(q, m):
        with tracer.span("nn_search", m) if tracer else nullcontext():
            return mv.nn_search(q, s.candidates, s.params[m],
                                advanced=s.advanced if m == "tc_dtw" else None,
                                dim_range=s.dim_range)

    for qi, q in enumerate(s.queries):
        k = qi % len(METHODS)
        for m in METHODS[k:] + METHODS[:k]:
            out = None
            if tracer:
                tracer.call = len(watch.intervals)
            try:
                out = watch.time(m, search, q, m)
            except Exception:  # counted as a failed search; the run goes on
                errors.append(f"{m}, query {qi}:\n{traceback.format_exc()}")
            outcomes[m].append(out)
    latency = {m: [] for m in METHODS}
    for m, raw, scale in watch.intervals:
        latency[m].append(raw * scale)
    return Pass(latency, outcomes, errors, watch)


def _answer(out) -> tuple:
    return out.best_index, float(out.best_distance).hex()


def _counters(out) -> tuple | None:
    if out is None:
        return None
    return (*_answer(out), out.dtw_computed, out.dtw_skipped, out.lb_mv_evals,
            out.advanced_lb_evals, out.abandon_count, float(out.work).hex())


def failed_searches(p: Pass) -> int:
    """Searches that raised or whose answer differs bit-wise from `none`'s."""
    failed = 0
    for qi, ref in enumerate(p.outcomes["none"]):
        for m in METHODS:
            out = p.outcomes[m][qi]
            if out is None or ref is None or _answer(out) != _answer(ref):
                failed += 1
    return failed


def signature(p: Pass) -> tuple:
    return tuple((m, tuple(_counters(o) for o in p.outcomes[m])) for m in METHODS)


def measure(mv, s: Setup, clock: ReferenceClock, seconds: float) -> list[Pass]:
    """Untraced passes: at least one, and more while another one fits."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(mv, s, clock))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return passes


def _sums(outs: list) -> dict:
    fields = ("dtw_computed", "dtw_skipped", "lb_mv_evals", "advanced_lb_evals",
              "abandon_count", "work")
    return {f: sum(getattr(o, f) for o in outs if o is not None) for f in fields}


def cross_check(tracer: Tracer, traced: Pass, absent: list) -> tuple[list, list]:
    """Compare wrapper counts with the NnOutcome sums of the traced pass.

    Returns (problems, bypassed).  A layer whose function the library no
    longer binds is skipped; one that is bound but never called while its
    counter is non-zero is reported as bypassed, not as a mismatch.
    """
    summary = tracer.summary()
    problems, bypassed = [], []
    for m in METHODS:
        want = _sums(traced.outcomes[m])

        def calls(*names):
            return sum(summary.get((m, n), {}).get("calls", 0) for n in names)

        abandoned = tracer.counts.get((m, "dtw_banded"), {}).get("abandoned", 0)
        checks = (
            ("dtw_banded calls", ("dtw_banded",), calls("dtw_banded"), want["dtw_computed"]),
            ("lb_mv calls", ("lb_mv",), calls("lb_mv"), want["lb_mv_evals"]),
            ("advanced bound calls", ("lb_ti", "lb_pc", "lb_ad"),
             calls("lb_ti", "lb_pc", "lb_ad"), want["advanced_lb_evals"]),
            ("abandoned dtw_banded results", ("dtw_banded",), abandoned, want["abandon_count"]),
        )
        for label, names, seen, expected in checks:
            if seen == expected or any(n in absent for n in names):
                continue
            if seen == 0:
                bypassed.append(f"{m}: {label}")
            else:
                problems.append(f"{m}: {label} = {seen}, NnOutcome sum = {expected}")
    return problems, bypassed


def pair_bench(mv, s: Setup, clock: ReferenceClock, seed: int) -> tuple[dict, list]:
    """Min-of-reps time per pair and mean bound/DTW tightness per layer.

    Runs on a seeded, fixed sample of (query, candidate) pairs with no
    abandoning, default bound parameters, and per-query structures (envelope,
    neighbour steps, box sets) built outside the timed region, as the search
    builds them once per query.  Also checks every bound against exact DTW.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    qs = [s.queries[i] for i in sorted(rng.choice(len(s.queries), PAIR_QUERIES, replace=False))]
    cs = [s.candidates[i] for i in sorted(rng.choice(len(s.candidates), PAIR_CANDIDATES, replace=False))]
    p = mv.SearchParams(window=s.window)
    w = p.effective_window(qs[0].shape[0])
    prep = [
        (q, mv.build_envelope(q, w), mv.NeighborDistances(query_steps=mv.neighbor_steps(q)),
         mv.build_box_sets(q, w, p.group_width, p.quant_levels, p.max_boxes,
                           p.min_cell_frac, s.dim_range))
        for q in qs
    ]
    pairs = [(pq, c) for pq in prep for c in cs]
    layers = {
        "dtw_banded": lambda pq, c: mv.dtw_banded(pq[0], c, w).distance,
        "lb_mv": lambda pq, c: mv.lb_mv(c, pq[1]).value,
        "lb_ti": lambda pq, c: mv.lb_ti(pq[0], c, w, refresh_period=p.refresh_period,
                                        neighbor=pq[2]).value,
        "lb_pc": lambda pq, c: mv.lb_pc(c, pq[3]).value,
        "lb_ad": lambda pq, c: mv.lb_ad(pq[0], c, w).value,
    }
    metrics, values, problems = {}, {}, []
    watch = Stopwatch(clock)
    for name, fn in layers.items():
        for _ in range(PAIR_REPS):
            values[name] = watch.time(name, lambda: [fn(pq, c) for pq, c in pairs])
        best = min(raw * scale for lab, raw, scale in watch.intervals if lab == name)
        metrics[f"pair.{name}.us"] = (1e6 * best / len(pairs), "us")
    exact = values["dtw_banded"]
    for name in ("lb_mv", "lb_ti", "lb_pc", "lb_ad"):
        ratios = [b / d for b, d in zip(values[name], exact) if d > 0.0]
        metrics[f"pair.{name}.tightness"] = (sum(ratios) / len(ratios) if ratios else 0.0, "ratio")
        bad = sum(b > d for b, d in zip(values[name], exact))
        if bad:
            problems.append(f"{name} exceeds exact DTW on {bad} of {len(pairs)} sampled pairs")
    return metrics, problems


def end_to_end_metrics(setups: list, passes: list, failed: int, attempted: int) -> dict:
    count = sum(len(p.latency["none"]) for p in passes)
    busy = {m: sum(sum(p.latency[m]) for p in passes) for m in METHODS}
    lat_ms = [1e3 * x for p in passes for x in p.latency["tc_dtw"]]
    metrics = {"setup_s": (statistics.median(s.times["total"] for s in setups), "s")}
    metrics.update({f"{m}.qps": (count / busy[m], "1/s") for m in METHODS})
    metrics["tc_dtw.p50_ms"] = (statistics.median(lat_ms), "ms")
    metrics["tc_dtw.p90_ms"] = (statistics.quantiles(lat_ms, n=10)[8], "ms")
    metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer_metrics(mv, setups: list, plain: Pass, traced: Pass, tracer: Tracer) -> dict:
    s = setups[0]
    summary = tracer.summary([scale for _, _, scale in traced.watch.intervals])
    root = {m: summary.get((m, "nn_search"), {}).get("total_s", 0.0) for m in METHODS}

    def med(key):
        return statistics.median(x.times[key] for x in setups)

    def layer(m, name):
        st = summary.get((m, name), {})
        return st.get("calls", 0), st.get("self_s", 0.0)

    def us(m, name):
        calls, self_s = layer(m, name)
        return (1e6 * self_s / calls if calls else 0.0), "us"

    def share(m, name):
        return (layer(m, name)[1] / root[m] if root[m] else 0.0), "ratio"

    def prune_frac(m, name):
        calls = layer(m, name)[0]
        pruned = tracer.counts.get((m, name), {}).get("pruned", 0)
        return (pruned / calls if calls else 0.0), "ratio"

    metrics = {
        "ingest.parse_s": (med("parse"), "s"),
        "ingest.normalize_s": (med("normalize"), "s"),
        "search.tune_s": (med("tune"), "s"),
        "search.select_s": (med("select"), "s"),
        "search.tune_runs": (s.tune_runs, "count"),
        "tc_dtw.selected_lb_ti": (int(s.advanced == mv.Method.LB_TI), "flag"),
    }
    busy = {m: plain.watch.total(m) for m in METHODS}
    for m in TUNED:
        sums = _sums(traced.outcomes[m])
        for field in ("dtw_computed", "dtw_skipped", "advanced_lb_evals", "abandon_count", "work"):
            metrics[f"{m}.{field}"] = (sums[field], "count")
        metrics[f"{m}.speedup"] = (busy["none"] / busy[m], "x")
    for m in METHODS:
        calls, self_s = layer(m, "dtw_banded")
        cells = tracer.counts.get((m, "dtw_banded"), {}).get("cells", 0)
        metrics[f"{m}.dtw_banded.us"] = us(m, "dtw_banded")
        metrics[f"{m}.dtw_banded.share"] = share(m, "dtw_banded")
        metrics[f"{m}.dtw_banded.cells"] = (cells, "count")
        metrics[f"{m}.dtw_banded.ns_per_cell"] = ((1e9 * self_s / cells if cells else 0.0), "ns")
        metrics[f"{m}.as_series.calls"] = (layer(m, "as_series")[0], "count")
        metrics[f"{m}.as_series.us"] = us(m, "as_series")
    for m in TUNED:
        metrics[f"{m}.build_envelope.us"] = us(m, "build_envelope")
        for stat, fn in (("us", us), ("share", share), ("prune_frac", prune_frac)):
            metrics[f"{m}.lb_mv.{stat}"] = fn(m, "lb_mv")
    for m, bound in (("lb_ad", "lb_ad"), ("lb_ti", "lb_ti"), ("tc_dtw", "lb_ti"), ("tc_dtw", "lb_pc")):
        for stat, fn in (("us", us), ("share", share), ("prune_frac", prune_frac)):
            metrics[f"{m}.{bound}.{stat}"] = fn(m, bound)
    for m in ("lb_ti", "tc_dtw"):
        metrics[f"{m}.neighbor_steps.us"] = us(m, "neighbor_steps")
    metrics["tc_dtw.build_box_sets.us"] = us("tc_dtw", "build_box_sets")
    metrics["trace.overhead_frac"] = (traced.watch.total() / plain.watch.total() - 1.0, "ratio")
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def run(mv, workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result, metadata)."""
    import numpy

    meta = {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": int(trace), "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "git_commit": _git_commit(),
        "loadavg_start": os.getloadavg(),
    }
    clock = ReferenceClock()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        path = Path(tmp) / f"{workload.name}.mts"
        mv.write_native(workload.generate(seed), path)
        setups = [set_up(mv, clock, path, workload.window, seed) for _ in range(SETUP_REPS)]
    s = setups[0]
    problems = []
    if len({x.fingerprint for x in setups}) != 1:
        problems.append("tuned parameters or selected bound differ between set-ups")

    if trace:
        plain = run_pass(mv, s, clock)
        tracer = Tracer()
        with installed(tracer) as absent:
            traced = run_pass(mv, s, clock, tracer)
        passes = [plain, traced]
        metrics = per_layer_metrics(mv, setups, plain, traced, tracer)
        pair_metrics, pair_problems = pair_bench(mv, s, clock, seed)
        metrics.update(pair_metrics)
        check_problems, bypassed = cross_check(tracer, traced, absent)
        problems += pair_problems + check_problems
        meta.update(absent_layers=absent, bypassed_layers=bypassed, spans=len(tracer.spans))
    else:
        passes = measure(mv, s, clock, seconds)

    if len({signature(p) for p in passes}) != 1:
        problems.append("NnOutcome counters differ between passes")
    attempted = sum(len(p.latency[m]) for p in passes for m in METHODS)
    failed = sum(failed_searches(p) for p in passes)
    if not trace:
        metrics = end_to_end_metrics(setups, passes, failed, attempted)
    digest = hashlib.sha256(repr((s.fingerprint, signature(passes[0]))).encode()).hexdigest()
    calls = [call for p in passes for call in p.watch.intervals]
    raw_s = {m: [raw for lab, raw, _ in calls if lab == m] for m in METHODS}
    scales = [scale for _, _, scale in calls]
    meta.update(
        raw_qps={m: len(raw_s[m]) / sum(raw_s[m]) for m in METHODS},
        speed_scale={"min": min(scales), "median": statistics.median(scales), "max": max(scales)},
        queries=len(s.queries), candidates=len(s.candidates), passes=len(passes),
        latency_samples=sum(len(p.latency["tc_dtw"]) for p in passes),
        tuned={m: repr(p) for m, p in s.params.items()}, selected=str(s.advanced),
        counters_digest=digest, problems=problems,
        errors=[e for p in passes for e in p.errors][:5],
    )
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        mv = load_library()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, meta = run(mv, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in meta["problems"] + meta["errors"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
