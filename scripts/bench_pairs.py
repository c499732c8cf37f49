#!/usr/bin/env python3
"""Compare two checkouts on perfbench in alternating parent/change pairs.

Each pair runs `perfbench/run.py` once from each checkout, on one workload
and seed, one run after the other in one process each; the side that runs
first alternates from pair to pair.  Every run is untraced (--trace 0), and
the metrics are the end-to-end ones of the change checkout's BENCHMARK.json;
a run that lacks one of them stops the script.  The output JSON holds, per
workload and metric: each side's runs, median and quartiles, and how many
pairs the change won and lost (the better direction is the metric's
`better`), the relative change of the medians, signed so that positive means
better, next to the metric's `bound`, the parent's relative spread
`(q3 - q1) / median` and `past_bound`, true when `rel_change < -bound`.
`flagged`, at the top, lists each (workload, seed, metric) that is past its
bound or unresolved: its parent's spread exceeds its bound, so the pairs
cannot tell a change of that size from noise, unless every run of the
change reads better than every run of the parent.  Every run's `correct`
flag is kept, with the host's load averages (os.getloadavg) just before it;
the MALLOC_* environment variables the runs inherit are recorded once.  A run
that exits non-zero stops the script, with its side, workload, seed, pair and
the tail of its stderr.  After writing the JSON, the script exits with status
1 when a run is not `correct` or a metric is past its bound, naming each on
stderr; a metric that is only unresolved leaves the status 0.

Example:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload smooth-n100-w20 --pairs 10 --seconds 8 --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float, label: str) -> dict:
    """One untraced perfbench run; its result line with the metrics flattened,
    and the load averages before it.  A failing run stops the script, named
    by `label`."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    load = os.getloadavg()
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        tail = "\n".join(done.stderr.rstrip().splitlines()[-20:])
        sys.exit(f"{label} exited with code {done.returncode}; stderr ends:\n{tail}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "loadavg": load,
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def summary(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(pairs: list, metrics: list) -> dict:
    """Per metric: each side's summary, the pairs the change won, the signed
    relative change of the medians next to the metric's bound, the parent's
    relative spread and whether the change is past the bound."""
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        sides = {side: [p[side]["metrics"][name] for p in pairs]
                 for side in ("parent", "change")}
        diffs = [sign * (c - p) for p, c in zip(sides["parent"], sides["change"])]
        parent, change = summary(sides["parent"]), summary(sides["change"])
        base = parent["median"]
        rel = sign * (change["median"] - base) / abs(base) if base else None
        spread = (parent["q3"] - parent["q1"]) / abs(base) if base else None
        out[name] = {"unit": m["unit"], "better": m["better"], "parent": parent, "change": change,
                     "won": sum(d > 0 for d in diffs), "lost": sum(d < 0 for d in diffs),
                     "pairs": len(pairs), "rel_change": rel, "bound": m["bound"],
                     "parent_spread": spread,
                     "past_bound": rel is not None and rel < -m["bound"]}
    return out


def flagged(results: list) -> list:
    """The (workload, seed, metric) entries past their bound or unresolved.
    A metric on which every run of the change beats every run of the parent
    is resolved, however wide the parent's spread."""
    out = []
    for r in results:
        for name, m in r["metrics"].items():
            sign = 1 if m["better"] == "higher" else -1
            apart = (min(sign * v for v in m["change"]["runs"])
                     > max(sign * v for v in m["parent"]["runs"]))
            unresolved = (m["parent_spread"] is not None and m["parent_spread"] > m["bound"]
                          and not apart)
            if m["past_bound"] or unresolved:
                out.append({"workload": r["workload"], "seed": r["seed"], "metric": name,
                            "past_bound": m["past_bound"], "unresolved": unresolved,
                            "rel_change": m["rel_change"], "parent_spread": m["parent_spread"],
                            "bound": m["bound"]})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="the parent commit's checkout")
    ap.add_argument("--change", type=Path, required=True, help="the change's checkout")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seed", type=int, nargs="+", default=[42])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    report = {"flagged": [], "pairs": args.pairs, "seconds": args.seconds,
              "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
              "results": []}
    for seed in args.seed:
        for workload in args.workload:
            pairs = []
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {}
                for side in order:
                    label = (f"{side} checkout's run on {workload} "
                             f"(seed {seed}, pair {k + 1}/{args.pairs})")
                    pair[side] = run_once(checkouts[side], workload, seed, args.seconds, label)
                    missing = [m["name"] for m in metrics
                               if m["name"] not in pair[side]["metrics"]]
                    if missing:
                        sys.exit(f"{label} lacks {', '.join(missing)}")
                pairs.append(pair)
                print(f"{workload} seed {seed} pair {k + 1}/{args.pairs} done",
                      file=sys.stderr, flush=True)
            report["results"].append({
                "workload": workload, "seed": seed,
                "correct": {side: [p[side]["correct"] for p in pairs] for side in checkouts},
                "loadavg": {side: [p[side]["loadavg"] for p in pairs] for side in checkouts},
                "metrics": compare(pairs, metrics),
            })
            report["flagged"] = flagged(report["results"])
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    failures = [f"{r['workload']} seed {r['seed']}: a {side} run is not correct"
                for r in report["results"] for side, runs in r["correct"].items()
                if not all(runs)]
    failures += [f"{f['workload']} seed {f['seed']}: {f['metric']} is past its bound"
                 for f in report["flagged"] if f["past_bound"]]
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
