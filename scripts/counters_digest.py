#!/usr/bin/env python3
"""Dump every deterministic output of the search on the benchmark fixtures,
with one sha256 per fixture, so two versions of the code can be compared for
identical answers, counters, tuning and selection.

For each workload of perfbench/workloads.py the fixture is generated from the
seed, normalized and split in half into queries and candidates.  The dump
lists, one line each:

* every tune_params grid evaluation (`tune`), its cost in hex;
* the bound tc_dtw_select picks for the tuned tc_dtw (`select`);
* every query's NnOutcome (`query`) under none, lb_mv, lb_ti, lb_pc, lb_ad
  and tc_dtw with each option tc_dtw_select ranks (lb_ti, lb_pc and the
  plain sweep, none): answer, counters, and the work total in hex.

The last line per workload is `sha256 <workload> <hex digest of its lines>`.

Example:
    python scripts/counters_digest.py --seed 42 | grep ^sha256
"""

import argparse
import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from mvdtw import Method, SearchParams, nn_search, normalize, split, tc_dtw_select, tune_params  # noqa: E402
from mvdtw.search import selection_sample  # noqa: E402

QUERY_FRAC = 0.5
SINGLE = (Method.NONE, Method.LB_MV, Method.LB_TI, Method.LB_PC, Method.LB_AD)
OUTCOME_FIELDS = ("best_index", "dtw_computed", "dtw_skipped", "lb_mv_evals",
                  "advanced_lb_evals", "abandon_count")


def fixture_lines(name: str, seed: int) -> list[str]:
    w = WORKLOADS[name]
    ds = normalize(w.generate(seed))
    qs, cs = split(ds, QUERY_FRAC, seed)
    queries, cands = qs.series_list(), cs.series_list()
    lines = []
    log: list = []
    tuned = {}
    for method in (*SINGLE, Method.TC_DTW):
        tuned[method] = tune_params(queries, cands, SearchParams(window=w.window, method=method),
                                    seed=seed, dim_range=ds.dim_ranges, log=log)
    for adv, p, cost in log:
        lines.append(f"{name} tune {adv.value} {p!r} {cost.hex()}")
    sq, sc = selection_sample(queries, cands, seed)
    choice = tc_dtw_select(sq, sc, tuned[Method.TC_DTW], dim_range=ds.dim_ranges)
    lines.append(f"{name} select {choice.value}")
    runs = [(m.value, tuned[m], None) for m in SINGLE] + [
        (f"tc_dtw({a.value})", tuned[Method.TC_DTW], a)
        for a in (Method.LB_TI, Method.LB_PC, Method.NONE)]
    for label, params, adv in runs:
        for qi, q in enumerate(queries):
            out = nn_search(q, cands, params, advanced=adv, dim_range=ds.dim_ranges)
            counters = " ".join(str(getattr(out, f)) for f in OUTCOME_FIELDS)
            lines.append(f"{name} query {label} {qi} {counters} "
                         f"{out.best_distance.hex()} {out.work.hex()}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    for name in WORKLOADS:
        lines = fixture_lines(name, args.seed)
        print("\n".join(lines))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"sha256 {name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
