#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny workload; takes a few seconds.

    python3 perfbench/selftest.py

Checks that:
* BENCHMARK.json lists the workloads of workloads.py, and both modes emit
  exactly the metrics it lists, with its units, every end-to-end value
  non-zero;
* counters repeat across runs with one seed and between traced and
  untraced runs;
* a deliberately wrong reference answer and a search that raises are both
  counted as failed searches;
* a span's self time excludes its children;
* a layer the library no longer binds is reported absent, and the wrapped
  functions are restored afterwards.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

import run as bench
from spans import Tracer, installed
from workloads import WORKLOADS

TINY = replace(WORKLOADS["clustered-w10"], name="tiny", num_series=24, length=12, window=3)
SEED = 7


def check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def check_metric_names(spec: dict, key: str, result: dict) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec[key]}
    check(got == want, f"{key}: missing {sorted(want.keys() - got.keys())}, "
                       f"extra {sorted(got.keys() - want.keys())}, "
                       f"units {[k for k in got.keys() & want.keys() if got[k] != want[k]]}")


def injected(mv, fault):
    """Run the tiny workload with mv.nn_search replaced by `fault(real, ...)`."""
    real = mv.nn_search
    mv.nn_search = lambda *args, **kwargs: fault(real, *args, **kwargs)
    try:
        return bench.run(mv, TINY, SEED, 0.0, False)[0]
    finally:
        mv.nn_search = real


def main() -> int:
    mv = bench.load_library()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    check(listed == {k: w.why for k, w in WORKLOADS.items()}, "workloads differ from workloads.py")

    digests = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, meta = bench.run(mv, TINY, SEED, 0.0, trace)
        check(result["correct"] and result["failed"] == 0, f"trace={trace}: {meta['problems']}")
        check_metric_names(spec, key, result)
        digests.append(meta["counters_digest"])
        if not trace:
            zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
            check(not zero, f"end-to-end metrics read 0: {zero}")
    digests.append(bench.run(mv, TINY, SEED, 0.0, False)[1]["counters_digest"])
    check(len(set(digests)) == 1, "counters differ between runs or between traced and untraced")

    seen = {"none": 0, "lb_ad": 0}

    def wrong_reference(real, query, candidates, params, **kwargs):
        out = real(query, candidates, params, **kwargs)
        if params.method == mv.Method.NONE:
            seen["none"] += 1
            if seen["none"] == 1:
                out = replace(out, best_index=out.best_index + 1)
        return out

    result = injected(mv, wrong_reference)
    # The other three methods disagree with the corrupted reference.
    check(result["failed"] == 3 and not result["correct"], f"wrong reference: {result['failed']}")
    check(result["metrics"]["ok_frac"]["value"] < 1.0, "ok_frac misses the wrong reference")

    def raises(real, query, candidates, params, **kwargs):
        if params.method == mv.Method.LB_AD:
            seen["lb_ad"] += 1
            if seen["lb_ad"] == 2:
                raise RuntimeError("injected failure")
        return real(query, candidates, params, **kwargs)

    result = injected(mv, raises)
    check(result["failed"] == 1 and not result["correct"], f"raising search: {result['failed']}")

    tracer = Tracer()
    inner = tracer.wrap("inner", time.sleep)
    with tracer.span("outer", "g"):
        inner(0.02)
    summary = tracer.summary()
    outer = summary[("g", "outer")]
    check(outer["self_s"] < outer["total_s"] - 0.015, "self time includes a child span")
    check(summary[("g", "inner")]["calls"] == 1, "wrapped call not recorded")

    search = sys.modules["mvdtw.search"]
    saved = search.build_box_sets, search.dtw_banded
    del search.build_box_sets
    try:
        with installed(Tracer()) as absent:
            check(absent == ["build_box_sets"], f"absent layers: {absent}")
            check(search.dtw_banded is not saved[1], "dtw_banded not wrapped")
    finally:
        search.build_box_sets = saved[0]
    check(search.dtw_banded is saved[1], "dtw_banded not restored")

    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
