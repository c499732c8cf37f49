"""scripts/kernel_costs.py on a tiny grid: one JSON row per (n, D, W, C)
point, with a positive µs-per-candidate figure for every kernel."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = {"lb_ti_terms", "lb_ad_terms", "lb_pc_terms.envelope", "lb_pc_terms.boxes", "dtw_rows"}


def test_kernel_costs_prints_positive_costs_per_grid_point(capsys):
    spec = importlib.util.spec_from_file_location("kernel_costs", ROOT / "scripts" / "kernel_costs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    status = module.main(["--n", "6", "9", "--dims", "2", "--window", "1", "12",
                          "--count", "1", "3", "--reps", "2"])
    assert status == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reps"] == 2
    points = [(r["n"], r["dims"], r["window"], r["count"]) for r in out["rows"]]
    # W = 12 is capped at n - 1
    assert points == [(6, 2, 1, 1), (6, 2, 1, 3), (6, 2, 5, 1), (6, 2, 5, 3),
                      (9, 2, 1, 1), (9, 2, 1, 3), (9, 2, 8, 1), (9, 2, 8, 3)]
    for row in out["rows"]:
        assert set(row["us_per_candidate"]) == KERNELS
        assert all(v > 0 for v in row["us_per_candidate"].values())
