import numpy as np
import pytest

from mvdtw import (
    InvalidInputError,
    ParseError,
    normalize,
    parse_native,
    parse_ts_subset,
    split,
    truncate_dims,
    write_native,
)
from mvdtw.synth import random_walk_dataset


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_native_basic(tmp_path):
    path = write(tmp_path, "tiny.mts", "2 3 2\n0 0\n0 0\n0 0\n0 0\n0 0\n0 0\n")
    raw = parse_native(path)
    assert raw.values.shape == (2, 3, 2)
    assert raw.name == "tiny"
    assert not np.isnan(raw.values).any()


def test_parse_native_comments_and_na(tmp_path):
    path = write(
        tmp_path, "na.mts",
        "# a comment\n1 2 2\n1.5 NA\n# mid comment\nNaN ?\n",
    )
    raw = parse_native(path)
    assert np.isnan(raw.values).tolist() == [[[False, True], [True, True]]]
    assert raw.values[0, 0, 0] == 1.5


def test_parse_native_errors(tmp_path):
    with pytest.raises(ParseError, match="line 2"):
        parse_native(write(tmp_path, "ragged.mts", "1 2 2\n1 2 3\n4 5\n"))
    with pytest.raises(ParseError, match="line 3"):
        parse_native(write(tmp_path, "nonnum.mts", "1 2 1\n1\nfoo\n"))
    with pytest.raises(ParseError, match="header"):
        parse_native(write(tmp_path, "head.mts", "1 2\n"))
    with pytest.raises(ParseError, match="value lines"):
        parse_native(write(tmp_path, "short.mts", "2 2 1\n1\n2\n3\n"))
    # infinite values, written out or overflowing, are named by their line,
    # whether the file converts in one call or (with a missing value) by line
    for k, (text, line) in enumerate([("1 2 2\n1 2\n3 inf\n", 3), ("1 2 1\n1e999\n2\n", 2),
                                      ("1 2 2\nNA 2\n-Infinity 4\n", 3)]):
        with pytest.raises(ParseError, match=f"line {line}: non-finite value"):
            parse_native(write(tmp_path, f"inf{k}.mts", text))


@pytest.mark.parametrize("missing", [False, True], ids=["all-numeric", "with-missing"])
def test_parse_native_values_are_float_bits(tmp_path, missing):
    # every token parses to the bits of float(token), missing ones to NaN,
    # whether the file converts in one call or line by line
    rows = [["1.5", "-2", "3e-7"], ["-0.0", "1E+308", "4.9e-324"], ["1e-310", "-9.5", "NaN"],
            ["+.5", "7.", "1_0"], ["0.1", "-1.7976931348623157e308", "2.5E3"]]
    if missing:
        rows[1][0], rows[3][2], rows[4][1] = "na", "?", "NA"
    lines = ["# leading comment", "  5 1 3  ", *("\t" + "  ".join(r) + " " for r in rows[:2]),
             "   # indented comment", "", *(" ".join(r) for r in rows[2:])]
    raw = parse_native(write(tmp_path, "bits.mts", "\n".join(lines) + "\n"))
    want = [float("nan") if t.lower() in ("na", "?") else float(t) for r in rows for t in r]
    assert raw.values.shape == (5, 1, 3)
    assert raw.values.ravel().view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


def test_parse_native_counts_values_per_line(tmp_path):
    # the one-call conversion must still name the first miscounted line,
    # also when the file's total count is right or every line is off alike
    cases = [("# c\n1 3 2\n1\n2\n3\n", "line 3: expected 2 values, found 1"),
             ("1 2 1\n1 2\n3 4\n", "line 2: expected 1 values, found 2"),
             ("1 2 2\n1\n2 3 4\n", "line 2: expected 2 values, found 1"),
             ("1 2 2\n1 2\n3 4 5\n", "line 3: expected 2 values, found 3"),
             ("1 2 2\nna 2\n3 4 5\n", "line 3: expected 2 values, found 3")]
    for k, (text, message) in enumerate(cases):
        with pytest.raises(ParseError, match=message):
            parse_native(write(tmp_path, f"count{k}.mts", text))


def test_native_round_trip(tmp_path, rng):
    ds = random_walk_dataset(4, 7, 3, seed=9)
    out = tmp_path / "rt.mts"
    write_native(ds, out)
    back = parse_native(out)
    assert back.values.shape == ds.values.shape
    assert np.array_equal(back.values, ds.values)
    # a second round trip is byte-stable
    out2 = tmp_path / "rt2.mts"
    write_native(back, out2)
    assert out.read_text() == out2.read_text()


TS_BODY = """@problemName toy
@timeStamps false
@univariate false
@dimensions 2
@equalLength true
@seriesLength 3
@classLabel true a b
@data
1,2,3:4,5,6:a
7,8,9:10,11,12:b
"""


def test_parse_ts_basic(tmp_path):
    raw = parse_ts_subset(write(tmp_path, "toy.ts", TS_BODY))
    assert raw.name == "toy"
    assert raw.values.shape == (2, 3, 2)
    assert raw.values[0, :, 0].tolist() == [1.0, 2.0, 3.0]
    assert raw.values[1, :, 1].tolist() == [10.0, 11.0, 12.0]


@pytest.mark.parametrize("lines, shape", [
    (["1:2:0.5", "3:4:1.5"], (2, 1, 2)),
    (["1,2,3:4,5,6:0.5", "7,8,9:10,11,12:1.5"], (2, 3, 2)),
], ids=["length-1", "length-3"])
def test_parse_ts_drops_regression_targets(tmp_path, lines, shape):
    # `@targetLabel true` ends each line in a target value, which is no dimension
    body = "@problemName reg\n@targetLabel true\n@data\n" + "\n".join(lines)
    raw = parse_ts_subset(write(tmp_path, "reg.ts", body + "\n"))
    assert raw.values.shape == shape
    assert raw.values[1, :, 1].tolist() == [float(v) for v in lines[1].split(":")[1].split(",")]


def test_parse_ts_missing_markers(tmp_path):
    body = "@problemName m\n@classLabel false\n@data\n1,?,3:4,5,?\n"
    raw = parse_ts_subset(write(tmp_path, "m.ts", body))
    assert np.isnan(raw.values).tolist() == [[[False, False], [True, False], [False, True]]]


def test_parse_ts_rejections(tmp_path):
    with pytest.raises(ParseError, match="unequal-length"):
        parse_ts_subset(write(tmp_path, "uneq.ts", "@equalLength false\n@data\n1,2:3,4\n"))
    with pytest.raises(ParseError, match="timestamp"):
        parse_ts_subset(write(tmp_path, "tstamp.ts", "@timeStamps true\n@data\n1,2:3,4\n"))
    with pytest.raises(ParseError, match="unsupported directive"):
        parse_ts_subset(write(tmp_path, "unk.ts", "@frobnicate yes\n@data\n1,2\n"))
    with pytest.raises(ParseError, match="ragged"):
        parse_ts_subset(write(tmp_path, "rag.ts", "@classLabel false\n@data\n1,2:3\n"))
    with pytest.raises(ParseError, match="shape differs"):
        parse_ts_subset(write(tmp_path, "len.ts", "@classLabel false\n@data\n1,2:3,4\n1,2,5:3,4,5\n"))
    # directives missing their value or holding a non-integer, and values
    # that are infinite, are named by their line
    cases = [("@timestamps\n@data\n1,2\n", "line 1: @timestamps needs a value"),
             ("@classLabel false\n@dimensions two\n@data\n1,2\n",
              "line 2: expected an integer, got 'two'"),
             ("@seriesLength x\n@data\n1,2\n", "line 1: expected an integer, got 'x'"),
             ("@dimensions 1\n@targetLabel maybe\n@data\n1,2:0.5\n",
              "line 2: expected true/false, got 'maybe'"),
             ("@problemName p\n@\n@data\n1,2\n", "line 2: unsupported directive"),
             ("@classLabel false\n@data\n1,2\n1,1e999\n", "line 4: non-finite value '1e999'"),
             ("@classLabel false\n@data\n-inf,2\n", "line 3: non-finite value '-inf'")]
    for k, (text, message) in enumerate(cases):
        with pytest.raises(ParseError, match=message):
            parse_ts_subset(write(tmp_path, f"bad{k}.ts", text))


def test_normalize_constant_dimension(tmp_path):
    vals = np.stack([np.column_stack([np.arange(4.0), np.full(4, 2.0)])] * 3)
    ds = normalize(raw_dataset(vals))
    assert np.all(ds.values[..., 1] == 0.0)  # zero-variance dimension maps to zeros
    assert ds.normalized
    assert ds.dim_ranges[1] == 0.0


def raw_dataset(vals):
    from mvdtw import RawDataset

    return RawDataset("x", vals)


def test_normalize_two_level_dimension():
    vals = np.array([[[0.0], [2.0]], [[2.0], [0.0]]])  # values 0 and 2 equally frequent
    ds = normalize(raw_dataset(vals))
    assert sorted(np.unique(ds.values).tolist()) == [-1.0, 1.0]


def test_normalize_idempotent(rng):
    ds = normalize(raw_dataset(rng.normal(3.0, 2.5, (6, 10, 3))))
    again = normalize(ds)
    assert np.allclose(again.values, ds.values, atol=1e-12)
    assert again.values.shape == ds.values.shape


def test_normalize_counts_missing_as_zero():
    vals = np.array([[[np.nan], [2.0], [4.0]]])
    ds = normalize(raw_dataset(vals))
    # statistics over {0, 2, 4}: mean 2, std sqrt(8/3)
    sd = np.sqrt(8.0 / 3.0)
    assert ds.values[0, :, 0] == pytest.approx([-2.0 / sd, 0.0, 2.0 / sd])


def test_truncate_dims(rng):
    ds = random_walk_dataset(3, 5, 4, seed=2)
    full = truncate_dims(ds, 4)
    assert full is ds
    cut = truncate_dims(ds, 2)
    assert cut.dims == 2
    assert np.array_equal(cut.values, ds.values[:, :, :2])
    assert np.array_equal(cut.dim_ranges, ds.dim_ranges[:2])
    with pytest.raises(InvalidInputError):
        truncate_dims(ds, 0)
    for bad in (5, 2.5, "2", None):
        with pytest.raises(InvalidInputError, match="dims_used"):
            truncate_dims(ds, bad)


def test_split_deterministic_and_order_preserving():
    ds = random_walk_dataset(10, 6, 2, seed=4)
    q1, c1 = split(ds, 0.3, seed=99)
    q2, c2 = split(ds, 0.3, seed=99)
    assert q1.num_series == 3 and c1.num_series == 7
    assert np.array_equal(q1.values, q2.values)
    assert np.array_equal(c1.values, c2.values)
    other_q, _ = split(ds, 0.3, seed=100)
    assert not np.array_equal(q1.values, other_q.values)
    # candidates keep original file order
    orig = [tuple(s[0]) for s in ds.series_list()]
    kept = [tuple(s[0]) for s in c1.series_list()]
    assert kept == [row for row in orig if row in set(kept)]


def test_split_edge_cases():
    ds = random_walk_dataset(2, 4, 1, seed=6)
    q, c = split(ds, 0.5, seed=0)
    assert q.num_series == 1 and c.num_series == 1
    with pytest.raises(InvalidInputError):
        split(ds, 0.01, seed=0)
    with pytest.raises(InvalidInputError):
        split(ds, 0.99, seed=0)
    for bad in (1.5, "0.5", None, float("nan")):
        with pytest.raises(InvalidInputError, match="query_frac"):
            split(ds, bad, seed=0)
    for bad in (2.5, "2", -1):
        with pytest.raises(InvalidInputError, match="seed"):
            split(ds, 0.5, seed=bad)
