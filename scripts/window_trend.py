#!/usr/bin/env python3
"""Window-size sensitivity experiment: skip rates and speedups of every
bound method at two warping-window sizes, on synthetic dataset families.

Smaller windows tighten every bound (and shrink the exact distances), so
skip rates should rise as the window drops; the adaptive cascade should
never skip less than the plain envelope bound.

Example:
    python scripts/window_trend.py --windows 20 10 --num-series 120 --reps 3
"""

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mvdtw import Method, write_native
from mvdtw.cli import BenchConfig, emit_report, run_benchmark
from mvdtw.synth import clustered_dataset, random_walk_dataset, smooth_walk_dataset

METHODS = [Method.NONE, Method.LB_MV, Method.LB_TI, Method.LB_PC, Method.TC_DTW]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--windows", nargs=2, type=int, default=[20, 10])
    ap.add_argument("--num-series", type=int, default=120)
    ap.add_argument("--length", type=int, default=48)
    ap.add_argument("--dims", type=int, default=3)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--emit", choices=["table", "csv", "json"], default="table")
    args = ap.parse_args()

    datasets = [
        random_walk_dataset(args.num_series, args.length, args.dims, seed=args.seed, name="walk"),
        smooth_walk_dataset(args.num_series, args.length, args.dims, seed=args.seed, name="smooth"),
        clustered_dataset(args.num_series, args.length, args.dims, seed=args.seed, name="clustered"),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for ds in datasets:
            path = os.path.join(tmp, f"{ds.name}.mts")
            write_native(ds, path)
            paths.append(path)
        config = BenchConfig(
            data=paths, methods=METHODS, windows=list(args.windows),
            seed=args.seed, reps=args.reps,
        )
        reports = run_benchmark(config)
    sys.stdout.write(emit_report(reports, args.emit, {"seed": args.seed, "reps": args.reps}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
