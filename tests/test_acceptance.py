"""Acceptance suite: one test per release criterion, each printing a
"[criterion N] <name>: PASS/FAIL" line (visible under `pytest -s`).

Criteria with stated runtime budgets assert them.  The real-data check is
non-blocking: it skips unless UCR `.ts` files are supplied via the
MVDTW_UCR_DIR environment variable.
"""

import glob
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mvdtw import (
    Method,
    SearchParams,
    build_envelope,
    dtw_banded,
    lb_ad,
    lb_mv,
    lb_pc,
    lb_ti,
    nn_search,
    normalize,
    parse_ts_subset,
    split,
    tc_dtw_select,
    truncate_dims,
    tune_params,
    write_native,
)
from mvdtw.cli import BenchConfig, emit_report, run_benchmark
from mvdtw.lb_pc import _cap_cells, _grouped_cells
from mvdtw.search import selection_sample
from mvdtw.synth import (
    clustered_dataset,
    iid_noise_dataset,
    random_walk_dataset,
    smooth_walk_dataset,
)

from oracles import TiVariant, brute_dtw, count_band_paths, reference_lb_ti

SEED = 42
TI_PERIODS = (1, 2, 5)  # plus n, appended per instance for the deployed lb_ti
PC_WIDTHS = (1, 3, 6)
PC_LEVELS = (1, 2, 3)
PC_CAPS = (1, 2, 6)
COUNTER_COLUMNS = ("dataset", "method", "window", "dims", "skip_pct",
                   "dtw_computed", "dtw_skipped", "seed")


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] {name}: FAIL")
        raise
    print(f"\n[criterion {num}] {name}: PASS")


def soundness_instance(rng):
    """Random (q, c, window): mostly random walks and i.i.d. noise (the
    required corpus), plus a slice of near-copy / plateau shapes that stress
    near-tight bound configurations."""
    u = rng.random()
    n = 2 + int(62 * u * u)
    dims = int(rng.integers(1, 11))
    window = int(rng.integers(0, 21))
    kind = rng.random()
    if kind < 0.5:
        q = np.cumsum(rng.normal(0, 1, (n, dims)), axis=0)
        c = np.cumsum(rng.normal(0, 1, (n, dims)), axis=0)
    elif kind < 0.9:
        q = rng.normal(0, 1, (n, dims))
        c = rng.normal(0, 1, (n, dims))
    elif kind < 0.95:
        q = np.cumsum(rng.normal(0, 1, (n, dims)), axis=0)
        c = np.roll(q + rng.normal(0, 1e-3, (n, dims)), int(rng.integers(0, 3)), axis=0)
    else:
        base = rng.normal(0, 1, (max(1, n // 3), dims))
        q = np.repeat(base, 3, axis=0)[:n]
        c = np.repeat(rng.permutation(base, axis=0), 3, axis=0)[:n]
        q = np.vstack([q, np.repeat(q[-1:], n - len(q), axis=0)]) if len(q) < n else q
        c = np.vstack([c, np.repeat(c[-1:], n - len(c), axis=0)]) if len(c) < n else c
    return q, c, window


def ti_bounds(q, c, w, n):
    """Every triangle-bound variant: the deployed lb_ti (TIP_TOP) at each
    period, the others from the reference.  The reference TIP leaves out
    period n, where it is BASIC bit for bit (criterion 4 and
    test_lb_ti::test_tip_with_period_n_equals_basic check that)."""
    for variant in (TiVariant.BASIC, TiVariant.TOP):
        yield reference_lb_ti(q, c, w, variant).value
    for period in TI_PERIODS:
        yield reference_lb_ti(q, c, w, TiVariant.TIP, period).value
    for period in (*TI_PERIODS, n):
        yield lb_ti(q, c, w, refresh_period=period).value


def test_criterion_1_soundness_suite():
    """Every bound stays at or below the exact banded DTW on 12,000 random
    instances, with no tolerance, in under two minutes."""
    with criterion(1, "soundness of every bound on 12,000 random instances"):
        rng = np.random.default_rng(SEED)
        start = time.perf_counter()
        total = 12_000
        for case in range(total):
            q, c, w = soundness_instance(rng)
            n = len(q)
            exact = dtw_banded(q, c, w).distance
            env = build_envelope(q, w)
            assert lb_mv(c, env).value <= exact, f"lb_mv violation at case {case}"
            assert lb_ad(q, c, w).value <= exact, f"lb_ad violation at case {case}"
            for value in ti_bounds(q, c, w, n):
                assert value <= exact, f"lb_ti violation at case {case}"
            ref = q.max(axis=0) - q.min(axis=0)
            for gw in PC_WIDTHS:
                for levels in PC_LEVELS:
                    cells = _grouped_cells(q, w, gw, levels, 1e-5, ref)
                    for cap in PC_CAPS:
                        value = lb_pc(c, _cap_cells(cells, cap)).value
                        assert value <= exact, f"lb_pc violation at case {case}"
        elapsed = time.perf_counter() - start
        print(f"\n  {total} instances checked in {elapsed:.1f}s")
        assert elapsed < 120.0, f"soundness suite took {elapsed:.1f}s (budget 120s)"


def test_criterion_2_dtw_oracle_equivalence():
    """Banded DTW equals path-enumeration brute force to 1e-9 relative on
    1,000+ small instances in under a minute."""
    with criterion(2, "banded DTW equals path enumeration (n <= 12)"):
        rng = np.random.default_rng(SEED + 1)
        start = time.perf_counter()
        cases = 0
        while cases < 1_000:
            n = int(rng.integers(2, 13))
            dims = int(rng.integers(1, 6))
            feasible = [w for w in range(n) if count_band_paths(n, w) <= 30_000]
            w = int(rng.choice(feasible))
            if rng.random() < 0.5:
                q = np.cumsum(rng.normal(0, 1, (n, dims)), axis=0)
                c = np.cumsum(rng.normal(0, 1, (n, dims)), axis=0)
            else:
                q = rng.normal(0, 1, (n, dims))
                c = rng.normal(0, 1, (n, dims))
            fast = dtw_banded(q, c, w).distance
            slow = brute_dtw(q, c, w)
            assert fast == pytest.approx(slow, rel=1e-9)
            cases += 1
        elapsed = time.perf_counter() - start
        print(f"\n  {cases} instances checked in {elapsed:.1f}s")
        assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s (budget 60s)"


def _nn_datasets():
    gens = [
        lambda s: random_walk_dataset(200, 50, 3, seed=s, name=f"walk{s}"),
        lambda s: random_walk_dataset(200, 50, 3, seed=s + 50, name=f"walk{s + 50}"),
        lambda s: smooth_walk_dataset(200, 50, 3, seed=s, name="smooth"),
        lambda s: clustered_dataset(200, 50, 3, seed=s, name="clustered"),
        lambda s: iid_noise_dataset(200, 50, 3, seed=s, name="iid"),
    ]
    return [normalize(g(SEED)) for g in gens]


def _real_datasets():
    root = os.environ.get("MVDTW_UCR_DIR", "")
    if not root:
        return []
    found = []
    for path in sorted(glob.glob(os.path.join(root, "**", "*.ts"), recursive=True))[:2]:
        try:
            found.append(normalize(parse_ts_subset(path)))
        except Exception:
            continue
    return found


def _method_outcomes(queries, cands, method, window, dim_range):
    params = SearchParams(window=window, method=method)
    advanced = None
    if method == Method.TC_DTW:
        sq, sc = selection_sample(queries, cands, SEED)
        advanced = tc_dtw_select(sq, sc, params, dim_range=dim_range)
    return [nn_search(q, cands, params, advanced=advanced, dim_range=dim_range)
            for q in queries]


def test_criterion_3_nn_identity():
    """All six methods return identical nearest neighbors and distances for
    every query on five synthetic datasets (and any supplied real data)."""
    with criterion(3, "nearest-neighbor identity across all six methods"):
        datasets = _nn_datasets() + _real_datasets()
        assert len(datasets) >= 5
        window = 6
        for ds in datasets:
            qs_ds, cs_ds = split(ds, 0.3, seed=SEED)
            queries, cands = qs_ds.series_list(), cs_ds.series_list()
            reference = _method_outcomes(queries, cands, Method.NONE, window, ds.dim_ranges)
            for method in (Method.LB_MV, Method.LB_TI, Method.LB_PC, Method.TC_DTW, Method.LB_AD):
                outcomes = _method_outcomes(queries, cands, method, window, ds.dim_ranges)
                for ref, out in zip(reference, outcomes):
                    assert out.best_index == ref.best_index, (ds.name, method)
                    assert out.best_distance == ref.best_distance, (ds.name, method)


def test_criterion_4_dominance_chain():
    """lb_mv <= lb_pc(ungrouped) <= lb_ad and lb_ti <= lb_ad on every tested
    pair, exactly; the periodic triangle bound with period n is bit-identical
    to the basic variant."""
    with criterion(4, "bound dominance chain and TIP(P=n) == BASIC"):
        rng = np.random.default_rng(SEED + 2)
        for case in range(2_000):
            q, c, w = soundness_instance(rng)
            n = len(q)
            env = build_envelope(q, w)
            mv = lb_mv(c, env).value
            ad = lb_ad(q, c, w).value
            assert mv <= ad
            ref = q.max(axis=0) - q.min(axis=0)
            for levels in PC_LEVELS:
                cells = _grouped_cells(q, w, 1, levels, 1e-5, ref)
                for cap in PC_CAPS:
                    pc = lb_pc(c, _cap_cells(cells, cap)).value
                    assert mv <= pc <= ad, f"chain violation at case {case}"
            for value in ti_bounds(q, c, w, n):
                assert value <= ad, f"lb_ti above lb_ad at case {case}"
            assert (reference_lb_ti(q, c, w, TiVariant.TIP, n).value
                    == reference_lb_ti(q, c, w, TiVariant.BASIC).value)
            assert lb_ti(q, c, w, refresh_period=n).value == reference_lb_ti(q, c, w, TiVariant.TOP).value


def _skip_pct(queries, cands, params, advanced, dim_range):
    computed = skipped = 0
    for q in queries:
        out = nn_search(q, cands, params, advanced=advanced, dim_range=dim_range)
        computed += out.dtw_computed
        skipped += out.dtw_skipped
    return 100.0 * skipped / (computed + skipped)


def test_criterion_5_window_trend():
    """On random-walk datasets, every bound method's average skip rate
    strictly increases when the window shrinks from 20 to 10."""
    with criterion(5, "skip rates rise as the window drops from 20 to 10"):
        datasets = [normalize(random_walk_dataset(90, 48, 3, seed=s)) for s in (1, 2, 3)]
        methods = (Method.LB_MV, Method.LB_TI, Method.LB_PC, Method.TC_DTW, Method.LB_AD)
        split_sets = []
        for ds in datasets:
            qs_ds, cs_ds = split(ds, 0.3, seed=SEED)
            split_sets.append((qs_ds.series_list(), cs_ds.series_list(), ds.dim_ranges))
        for method in methods:
            rates = {}
            for window in (20, 10):
                per_ds = []
                for queries, cands, dim_range in split_sets:
                    params = SearchParams(window=window, method=method)
                    advanced = Method.LB_PC if method == Method.TC_DTW else None
                    per_ds.append(_skip_pct(queries, cands, params, advanced, dim_range))
                rates[window] = sum(per_ds) / len(per_ds)
            print(f"\n  {method.value}: W=20 {rates[20]:.1f}% -> W=10 {rates[10]:.1f}%")
            assert rates[10] > rates[20], f"{method.value} skip rate did not rise"


def test_criterion_6_tc_dtw_improvement():
    """On smooth and clustered synthetic families, the adaptive cascade never
    skips less than the envelope bound alone, and skips strictly more on at
    least one dataset of each family."""
    with criterion(6, "TC-DTW skip rate >= LB_MV on every dataset, > on each family"):
        window = 10
        families = {
            "smooth": [normalize(smooth_walk_dataset(90, 48, 3, seed=s)) for s in (11, 12, 13)],
            "clustered": [normalize(clustered_dataset(90, 48, 3, seed=s)) for s in (11, 12, 13)],
        }
        for family, datasets in families.items():
            strict = 0
            for ds in datasets:
                qs_ds, cs_ds = split(ds, 0.3, seed=SEED)
                queries, cands = qs_ds.series_list(), cs_ds.series_list()
                mv = _skip_pct(queries, cands,
                               SearchParams(window=window, method=Method.LB_MV),
                               None, ds.dim_ranges)
                params = tune_params(queries, cands,
                                     SearchParams(window=window, method=Method.TC_DTW),
                                     seed=SEED, dim_range=ds.dim_ranges)
                sq, sc = selection_sample(queries, cands, SEED)
                choice = tc_dtw_select(sq, sc, params, dim_range=ds.dim_ranges)
                tc = _skip_pct(queries, cands, params, choice, ds.dim_ranges)
                print(f"\n  {family} {ds.name}: lb_mv {mv:.1f}% tc_dtw {tc:.1f}% ({choice.value})")
                assert tc >= mv
                if tc > mv:
                    strict += 1
            assert strict >= 1, f"no strict improvement on the {family} family"


def test_criterion_7_real_data_skip_rates():
    """Non-blocking: with UCR files supplied, the envelope bound and the
    adaptive cascade reproduce the reference skip rates on Japanesevowels
    (10% and 40% at W=20, dims=5) within +/-15 percentage points."""
    root = os.environ.get("MVDTW_UCR_DIR", "")
    pattern = os.path.join(root, "**", "*apanese*owels*.ts")
    paths = sorted(glob.glob(pattern, recursive=True)) if root else []
    if not paths:
        pytest.skip("non-blocking: no UCR Japanesevowels .ts files supplied "
                    "(set MVDTW_UCR_DIR to enable)")
    with criterion(7, "Japanesevowels skip rates within 15 points of reference"):
        raws = []
        for path in paths:
            try:
                raws.append(parse_ts_subset(path))
            except Exception as exc:
                pytest.skip(f"non-blocking: could not parse {path}: {exc}")
        values = np.concatenate([r.values for r in raws], axis=0)
        from mvdtw import RawDataset

        ds = normalize(RawDataset("Japanesevowels", values))
        if ds.dims > 5:
            ds = truncate_dims(ds, 5)
        qs_ds, cs_ds = split(ds, 0.3, seed=SEED)
        queries, cands = qs_ds.series_list(), cs_ds.series_list()
        params = tune_params(queries, cands,
                             SearchParams(window=20, method=Method.TC_DTW),
                             seed=SEED, dim_range=ds.dim_ranges)
        sq, sc = selection_sample(queries, cands, SEED)
        choice = tc_dtw_select(sq, sc, params, dim_range=ds.dim_ranges)
        mv = _skip_pct(queries, cands, SearchParams(window=20, method=Method.LB_MV),
                       None, ds.dim_ranges)
        tc = _skip_pct(queries, cands, params, choice, ds.dim_ranges)
        print(f"\n  lb_mv {mv:.1f}% (reference 10%), tc_dtw {tc:.1f}% (reference 40%)")
        assert abs(mv - 10.0) <= 15.0
        assert abs(tc - 40.0) <= 15.0


def test_criterion_8_csv_determinism(tmp_path):
    """Two benchmark runs with one config and seed emit byte-identical CSV
    counter columns."""
    with criterion(8, "byte-identical CSV counter columns across runs"):
        ds = random_walk_dataset(30, 20, 2, seed=9, name="det")
        data = tmp_path / "det.mts"
        write_native(ds, data)
        config = BenchConfig(
            data=[str(data)], methods=[Method.LB_MV, Method.LB_TI, Method.TC_DTW],
            windows=[5], seed=SEED, reps=1,
        )
        outputs = []
        for _ in range(2):
            text = emit_report(run_benchmark(config), "csv")
            rows = [line.split(",") for line in text.splitlines()
                    if line and not line.startswith("#")]
            header, body = rows[0], rows[1:]
            keep = [header.index(c) for c in COUNTER_COLUMNS]
            outputs.append([[row[i] for i in keep] for row in body])
        assert outputs[0] == outputs[1]
