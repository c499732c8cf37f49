"""scripts/bench_pairs.py's exit status, with perfbench's runs replaced by
fixed results: it writes its JSON, then exits 1 when a run is not correct
or a metric is past its bound, and 0 when a metric is only unresolved.
A metric on which every change run beats every parent run is resolved."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(bench_pairs, monkeypatch, tmp_path, values, correct=True):
    """main() over 4 pairs where run k of `side` reads values[side][k] on
    every metric; the exit status and the JSON written."""
    calls = {"parent": 0, "change": 0}

    def fake_run_once(checkout, workload, seed, seconds, label):
        side = "parent" if checkout == tmp_path.resolve() else "change"
        value = values[side][calls[side]]
        calls[side] += 1
        return {"correct": correct or side == "parent", "loadavg": (0.0, 0.0, 0.0),
                "metrics": {m["name"]: value for m in METRICS}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "bench.json"
    status = bench_pairs.main(["--parent", str(tmp_path), "--change", str(ROOT),
                               "--workload", "iid-w10", "--pairs", "4", "--out", str(out)])
    return status, json.loads(out.read_text())


def test_exit_status(bench_pairs, monkeypatch, tmp_path):
    steady = [100.0] * 4
    status, report = run(bench_pairs, monkeypatch, tmp_path, {"parent": steady, "change": steady})
    assert status == 0 and report["flagged"] == []

    # a wrong answer fails the comparison, whatever the metrics read
    status, report = run(bench_pairs, monkeypatch, tmp_path,
                         {"parent": steady, "change": steady}, correct=False)
    assert status == 1 and report["results"][0]["correct"]["change"] == [False] * 4

    # every metric moves by half, past each bound in one direction or the other
    status, report = run(bench_pairs, monkeypatch, tmp_path,
                         {"parent": steady, "change": [150.0] * 4})
    assert status == 1 and any(f["past_bound"] for f in report["flagged"])

    # a parent spread wider than every bound, the medians equal: unresolved only
    wide = [50.0, 100.0, 100.0, 150.0]
    status, report = run(bench_pairs, monkeypatch, tmp_path, {"parent": wide, "change": wide})
    assert status == 0 and report["flagged"]
    assert all(f["unresolved"] and not f["past_bound"] for f in report["flagged"])


def test_every_change_run_better_than_every_parent_run_is_resolved(bench_pairs, monkeypatch,
                                                                     tmp_path):
    # a parent spread wider than every bound: a change that reads above every
    # parent run is better on the higher-is-better metrics, past its bound on
    # the others; one at or below the parent's best run stays unresolved
    wide = [20.0, 100.0, 100.0, 180.0]
    higher = {m["name"] for m in METRICS if m["better"] == "higher"}
    status, report = run(bench_pairs, monkeypatch, tmp_path,
                         {"parent": wide, "change": [200.0] * 4})
    assert status == 1
    assert {f["metric"] for f in report["flagged"]} == {m["name"] for m in METRICS} - higher
    assert all(f["past_bound"] for f in report["flagged"])
    status, report = run(bench_pairs, monkeypatch, tmp_path,
                         {"parent": wide, "change": [180.0] * 4})
    assert {f["metric"] for f in report["flagged"] if f["unresolved"]} >= higher
