import csv
import io
import json

import pytest

from mvdtw import write_native
from mvdtw.cli import (
    CSV_COLUMNS,
    BenchConfig,
    ConfigError,
    RunReport,
    build_parser,
    emit_report,
    main,
    run_benchmark,
)
from mvdtw.core import Method
from mvdtw.synth import clustered_dataset, random_walk_dataset

COUNTER_COLUMNS = ["dataset", "method", "window", "dims", "skip_pct",
                   "dtw_computed", "dtw_skipped", "seed"]


@pytest.fixture
def data_file(tmp_path):
    ds = random_walk_dataset(24, 16, 2, seed=3, name="walk")
    path = tmp_path / "walk.mts"
    write_native(ds, path)
    return str(path)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_end_to_end_csv(data_file, capsys):
    code, out = run_cli(
        ["--data", data_file, "--method", "none", "lb_mv", "tc_dtw",
         "--window", "4", "--reps", "1", "--seed", "7"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert [r["method"] for r in rows] == ["none", "lb_mv", "tc_dtw"]
    header = [ln for ln in out.splitlines() if not ln.startswith("#")][0]
    assert header == ",".join(CSV_COLUMNS)
    none_row = rows[0]
    assert float(none_row["speedup"]) == 1.0
    assert float(none_row["skip_pct"]) == 0.0
    for r in rows:
        assert float(r["ideal_speedup"]) > 0.0
        assert int(r["dtw_computed"]) + int(r["dtw_skipped"]) == 7 * 17


def test_counter_columns_reproducible(data_file, capsys):
    args = ["--data", data_file, "--method", "tc_dtw", "lb_ti", "--window", "3",
            "--reps", "1", "--seed", "21"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    rows1, rows2 = parse_csv(out1), parse_csv(out2)
    assert len(rows1) == len(rows2) == 2
    for r1, r2 in zip(rows1, rows2):
        for col in COUNTER_COLUMNS:
            assert r1[col] == r2[col]


def test_window_zero_and_dims(data_file, capsys):
    code, out = run_cli(
        ["--data", data_file, "--method", "lb_pc", "--window", "0",
         "--dims", "1", "all", "--reps", "1", "--no-tune"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert sorted(int(r["dims"]) for r in rows) == [1, 2]


def test_ideal_speedup_at_least_speedup(data_file, capsys):
    # taking the bound time out can only raise the speedup
    code, out = run_cli(
        ["--data", data_file, "--method", "lb_mv", "--window", "3", "--reps", "1"],
        capsys,
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["ideal_speedup"]) >= float(row["speedup"]) - 1e-9


def test_cascade_counter_columns_equal_outcome_sums(data_file, capsys, monkeypatch):
    import mvdtw.cli as cli

    search = cli.nn_search
    outcomes = {}

    def recording(q, candidates, params, **kw):
        out = search(q, candidates, params, **kw)
        outcomes.setdefault(params.method.value, []).append(out)
        return out

    monkeypatch.setattr(cli, "nn_search", recording)
    methods = ["none", "lb_mv", "lb_ti", "lb_pc", "tc_dtw", "lb_ad"]
    args = ["--data", data_file, "--method", *methods, "--window", "4",
            "--reps", "1", "--seed", "7"]
    code, out = run_cli(args, capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [r["method"] for r in rows] == methods
    assert list(rows[0])[-5:] == ["lb_mv_evals", "advanced_lb_evals", "params", "work",
                                  "dtw_swept"]
    # every integer column that sums the NnOutcome field of the same name
    columns = ["dtw_computed", "dtw_skipped", "lb_mv_evals", "advanced_lb_evals", "dtw_swept"]
    for r in rows:
        for col in columns:
            assert int(r[col]) == sum(getattr(o, col) for o in outcomes[r["method"]]), col
        assert int(r["dtw_computed"]) <= int(r["dtw_swept"])
    by_method = {r["method"]: r for r in rows}
    assert int(by_method["lb_ti"]["advanced_lb_evals"]) > 0
    assert int(by_method["none"]["dtw_swept"]) == int(by_method["none"]["dtw_computed"])
    # the first pass of each method; `none` runs once, as the baseline
    work = {m: sum(o.work for o in runs) for m, runs in outcomes.items()}
    _, out_json = run_cli(args + ["--emit", "json"], capsys)
    for r, json_row in zip(rows, json.loads(out_json)["rows"]):
        assert [json_row[col] for col in columns] == [int(r[col]) for col in columns]
        assert r["work"] == cli._fmt_cell(work[r["method"]])
        assert json_row["work"] == work[r["method"]] > 0


def test_dataset_name_with_a_comma_round_trips(tmp_path, capsys):
    # the csv module quotes the field, so a reader splits the row right
    path = tmp_path / "a,b.mts"
    write_native(random_walk_dataset(24, 16, 2, seed=3, name="walk"), path)
    code, out = run_cli(["--data", str(path), "--method", "lb_mv", "--window", "2",
                         "--reps", "1"], capsys)
    assert code == 0
    row, = parse_csv(out)
    assert (row["dataset"], row["method"], row["window"]) == ("a,b", "lb_mv", "2")
    assert list(row) == list(CSV_COLUMNS)


def test_emit_json_matches_csv(data_file, capsys):
    base = ["--data", data_file, "--method", "lb_mv", "--window", "4",
            "--reps", "1", "--seed", "5"]
    _, out_csv = run_cli(base + ["--emit", "csv"], capsys)
    _, out_json = run_cli(base + ["--emit", "json"], capsys)
    csv_row = parse_csv(out_csv)[0]
    json_row = json.loads(out_json)["rows"][0]
    assert list(json_row) == CSV_COLUMNS
    for col in COUNTER_COLUMNS:
        assert str(json_row[col]) == csv_row[col]


def test_emit_table(data_file, capsys):
    code, out = run_cli(
        ["--data", data_file, "--method", "lb_mv", "--window", "4",
         "--reps", "1", "--emit", "table"],
        capsys,
    )
    assert code == 0
    assert "skip_pct" in out and "lb_mv" in out


def test_params_column_equals_the_table_column(data_file, capsys):
    args = ["--data", data_file, "--method", "none", "lb_ti", "tc_dtw", "--window", "4",
            "--reps", "1", "--seed", "7"]
    _, out_csv = run_cli(args, capsys)
    _, out_json = run_cli(args + ["--emit", "json"], capsys)
    _, out_table = run_cli(args + ["--emit", "table"], capsys)
    header, _, *body = out_table.splitlines()[:5]
    start = header.index("params")  # each column left-justified, `work` next
    end = header.index("work", start)
    from_table = [line[start:end].rstrip() for line in body[:3]]
    assert [r["params"] for r in parse_csv(out_csv)] == from_table
    assert [r["params"] for r in json.loads(out_json)["rows"]] == from_table
    assert from_table[0] == "none"
    assert from_table[2].startswith("tc_dtw(") and "e_pc=" in from_table[2]


def test_params_label_of_every_method():
    # the full `params` text: the fields each method's bounds are tuned on,
    # then the fixed constants
    from mvdtw.cli import _describe_params
    from mvdtw.core import SearchParams

    want = {
        ("none", "none"): "none",
        ("lb_mv", "lb_mv"): "lb_mv",
        ("lb_ti", "lb_ti"): "lb_ti e_ti=0.05 P=5 K=6 w=6",
        ("lb_pc", "lb_pc"): "lb_pc e_pc=0.5 L=3 P=5 K=6 w=6",
        ("lb_ad", "lb_ad"): "lb_ad e_ti=0.05 P=5 K=6 w=6",
        ("tc_dtw", "tc_dtw(lb_pc)"): "tc_dtw(lb_pc) e_ti=0.05 e_pc=0.5 L=3 P=5 K=6 w=6",
        ("tc_dtw", "tc_dtw(lb_ti)"): "tc_dtw(lb_ti) e_ti=0.05 e_pc=0.5 L=3 P=5 K=6 w=6",
    }
    for (method, label), text in want.items():
        params = SearchParams(window=4, method=Method(method), trigger_ti=0.05,
                              trigger_pc=0.5, quant_levels=3)
        assert _describe_params(params, label) == text


def test_out_file(data_file, tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out = run_cli(
        ["--data", data_file, "--method", "lb_mv", "--window", "4",
         "--reps", "1", "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert parse_csv(target.read_text())


@pytest.mark.parametrize("target", ["missing/report.csv", "."], ids=["missing_dir", "a_dir"])
def test_unwritable_out_fails_before_any_work(data_file, tmp_path, capsys, monkeypatch, target):
    def no_work(config):
        raise AssertionError("the benchmark ran")

    monkeypatch.setattr("mvdtw.cli.run_benchmark", no_work)
    assert main(["--data", data_file, "--out", str(tmp_path / target)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "missing").exists()


def test_verify_flag(data_file, capsys):
    code, _ = run_cli(
        ["--data", data_file, "--method", "lb_mv", "--window", "3",
         "--reps", "1", "--verify"],
        capsys,
    )
    assert code == 0


def test_verify_flag_reports_a_bound_above_dtw(data_file, capsys, monkeypatch):
    # a kernel that overshoots every DTW distance: --verify names it, with
    # plain float values, and exits as a data error before any search
    import re

    import mvdtw.search as search

    terms = search.lb_ad_terms
    monkeypatch.setattr(search, "lb_ad_terms", lambda *a, **k: terms(*a, **k) + 1e6)
    code = main(["--data", data_file, "--method", "lb_mv", "--window", "3",
                 "--reps", "1", "--verify"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert re.fullmatch(r"data error: soundness violation: lb_ad=[0-9.e+]+ exceeds "
                        r"dtw=[0-9.e+]+ \(query 0, candidate 0\)\n", err), err


def test_config_errors(data_file, capsys):
    assert main(["--data", data_file, "--method", "bogus"]) == 1
    assert main(["--data", "/nonexistent/file.mts"]) == 1
    assert main(["--data", data_file, "--window", "-2"]) == 1
    assert main(["--data", data_file, "--dims", "banana"]) == 1
    assert main(["--data", data_file, "--dims", "7", "--reps", "1"]) == 1
    assert main(["--data", data_file, "--seed", "-1", "--reps", "1"]) == 1
    assert "config error: seed" in capsys.readouterr().err


def test_parser_options():
    # every option is a knob to keep working; adding one should be a decision
    options = {s for action in build_parser()._actions for s in action.option_strings}
    assert options == {
        "-h", "--help", "--data", "--format", "--method", "--window", "--dims", "--seed",
        "--reps", "--tune", "--no-tune", "--out", "--emit", "--verify",
    }
    # BenchConfig owns the defaults
    assert BenchConfig(**vars(build_parser().parse_args(["--data", "x"]))) == BenchConfig(data=["x"])


def test_data_errors(tmp_path, capsys):
    bad = tmp_path / "bad.mts"
    bad.write_text("1 2 2\n1 2\nch oke\n")
    assert main(["--data", str(bad), "--reps", "1"]) == 2
    tiny = tmp_path / "tiny.mts"
    tiny.write_text("1 2 1\n1\n2\n")  # one series cannot be split
    assert main(["--data", str(tiny), "--reps", "1"]) == 2
    capsys.readouterr()
    # a malformed .ts directive or an infinite value: a data error that
    # names its line, not a traceback
    for k, (text, fmt, line) in enumerate([("@timestamps\n@data\n1,2\n", "ts", 1),
                                           ("@seriesLength x\n@data\n1,2\n", "ts", 1),
                                           ("@dimensions two\n@data\n1,2\n", "ts", 1),
                                           ("2 1 1\n1\ninf\n", "native", 3),
                                           ("2 1 1\n1e999\n1\n", "native", 2)]):
        path = tmp_path / f"bad{k}.{fmt}"
        path.write_text(text)
        assert main(["--data", str(path), "--format", fmt, "--reps", "1"]) == 2
        assert f"line {line}:" in capsys.readouterr().err


def test_emit_report_empty_and_round_trip():
    assert emit_report([], "csv") == ",".join(CSV_COLUMNS) + "\n"
    report = RunReport(
        dataset="d", method="lb_mv", window=5, dims=2, skip_pct=50.0, speedup=1.5,
        ideal_speedup=2.0, dtw_computed=10, dtw_skipped=10, lb_time_s=0.25,
        dtw_time_s=0.5, total_time_s=1.0, seed=42,
    )
    text = emit_report([report], "csv")
    row = parse_csv(text)[0]
    assert row["dataset"] == "d"
    assert int(row["dtw_computed"]) == 10
    assert float(row["total_time_s"]) == 1.0
    assert float(row["ideal_speedup"]) == 2.0
    with pytest.raises(ConfigError):
        emit_report([report], "yaml")


def test_run_benchmark_rejects_bad_config(data_file, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran before the config was checked")

    monkeypatch.setattr("mvdtw.cli.nn_search", no_search)
    bad = [
        dict(data=[], methods=[Method.NONE]),
        dict(data=[data_file], methods=[]),
        dict(data=[data_file], methods=[Method.NONE], windows=[]),
        dict(data=[data_file], methods=[Method.NONE], windows=[4, -1]),
        dict(data=[data_file], methods=[Method.NONE], windows=[2.5]),
        dict(data=[data_file], methods=[Method.NONE], dims=["x"]),
        dict(data=[data_file], methods=[Method.NONE], dims=[1, 3]),
        dict(data=[data_file], methods=[Method.NONE], reps=0),
        dict(data=[data_file], methods=[Method.NONE], reps=2.5),
        dict(data=[data_file], methods=[Method.NONE], reps="3"),
        dict(data=[data_file], methods=[Method.NONE], seed=-1),
        dict(data=[data_file], methods=[Method.NONE], seed=1.5),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            run_benchmark(BenchConfig(**kwargs))


def test_tc_dtw_method_label_reports_choice(tmp_path):
    ds = clustered_dataset(18, 14, 2, seed=8, name="clust")
    path = tmp_path / "clust.mts"
    write_native(ds, path)
    config = BenchConfig(data=[str(path)], methods=[Method.TC_DTW], windows=[3],
                         reps=1, seed=11)
    reports = run_benchmark(config)
    assert len(reports) == 1
    assert reports[0].method == "tc_dtw"
    assert "tc_dtw(" in reports[0].params
