#!/usr/bin/env python3
"""Time the batched bound kernels and the DTW sweep per candidate.

For each (n, D, W, C) point of the grid given on the command line (every
combination of --n, --dims, --window and --count; W is capped at n - 1), a
random-walk query and C random-walk candidates are drawn from --seed, and
each kernel is called --reps times on all C candidates at once.  The
minimum of the reps, divided by C, is printed in µs per candidate:

* `lb_ti_terms` at SearchParams.refresh_period;
* `lb_ad_terms`;
* `lb_pc_terms.envelope`, the point-to-box kernel on the query's envelope
  (one box per index, as the search's envelope stage runs it);
* `lb_pc_terms.boxes`, the same kernel on the query's box sets, built with
  SearchParams' defaults;
* `dtw_rows`, µs per swept column.

The per-query builds (neighbour steps, envelope, box sets) are made once,
outside the timings.  The output is one JSON object with the settings and
one row per grid point.

Example:
    python3 scripts/kernel_costs.py --n 50 --dims 3 --window 10 --count 1 60 1000
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from mvdtw import SearchParams, build_box_sets, build_envelope, neighbor_steps  # noqa: E402
from mvdtw.dtw import dtw_rows  # noqa: E402
from mvdtw.lb_mv import lb_ad_terms  # noqa: E402
from mvdtw.lb_pc import lb_pc_terms  # noqa: E402
from mvdtw.lb_ti import lb_ti_terms  # noqa: E402


def kernels(q: np.ndarray, w: int) -> dict:
    """Each timed kernel as a function of the (D, n, C) plane set."""
    steps = neighbor_steps(q)
    env = build_envelope(q, w)
    boxes = build_box_sets(q, w, SearchParams.group_width, SearchParams.quant_levels,
                           SearchParams.max_boxes, SearchParams.min_cell_frac)
    return {
        "lb_ti_terms": lambda planes: lb_ti_terms(q, planes, w, SearchParams.refresh_period, steps),
        "lb_ad_terms": lambda planes: lb_ad_terms(q, planes, w),
        "lb_pc_terms.envelope": lambda planes: lb_pc_terms(planes, env),
        "lb_pc_terms.boxes": lambda planes: lb_pc_terms(planes, boxes),
        "dtw_rows": lambda planes: dtw_rows(q.T[..., None], planes, w),
    }


def costs(n: int, dims: int, window: int, count: int, reps: int, seed: int) -> dict:
    """One grid point's row: its shape and µs per candidate of each kernel."""
    g = np.random.default_rng(seed)
    w = min(window, n - 1)
    q = np.cumsum(g.normal(size=(n, dims)), axis=0)
    planes = np.cumsum(g.normal(size=(dims, n, count)), axis=1)
    us = {}
    for name, kernel in kernels(q, w).items():
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            kernel(planes)
            best = min(best, time.perf_counter() - start)
        us[name] = round(best * 1e6 / count, 3)
    return {"n": n, "dims": dims, "window": w, "count": count, "us_per_candidate": us}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, nargs="+", default=[50], help="series lengths")
    ap.add_argument("--dims", type=int, nargs="+", default=[3], help="dimensions D")
    ap.add_argument("--window", type=int, nargs="+", default=[10], help="windows W")
    ap.add_argument("--count", type=int, nargs="+", default=[60], help="candidates per call C")
    ap.add_argument("--reps", type=int, default=20, help="calls per kernel; the minimum is kept")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if min(args.n + args.dims + args.count + [args.reps]) < 1 or min(args.window) < 0:
        ap.error("--n, --dims, --count and --reps must be >= 1 and --window >= 0")
    rows = [costs(n, dims, window, count, args.reps, args.seed)
            for n, dims, window, count in itertools.product(args.n, args.dims, args.window,
                                                            args.count)]
    print(json.dumps({"reps": args.reps, "seed": args.seed,
                      "refresh_period": SearchParams.refresh_period, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
