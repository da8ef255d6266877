"""End-to-end tests of the table harnesses at tiny scale."""
import numpy as np
import pandas as pd
import pytest

from repro.datasets.archives import CollectionSpec, make_corpus
from repro.harness.complexity import (fit_exponents, measure_update_times,
                                      run_table2)
from repro.harness.evaluate import (annotated_widths, evaluate_method,
                                    run_table3, summarize_with_oracle,
                                    tune_method)
from repro.harness.table1 import run_table1
from repro.harness.throughput import _test_stream, sweep_window_size
from repro.methods import METHODS

TINY = (CollectionSpec("tiny-bench", "benchmark", 4, (1600, 2600), (2, 3),
                       (0.05, 0.1)),
        CollectionSpec("tiny-arch", "archive", 3, (2000, 3000), (2, 3),
                       (0.1, 0.2), ("sine", "pulse", "noise"), True))


@pytest.fixture(scope="module")
def tiny_corpus():
    return make_corpus(seed=4, collections=TINY)


# ---------------- Table 1 --------------------------------------------
def test_table1_oracle_checked(spark, tiny_corpus):
    out = run_table1(spark, tiny_corpus)
    assert set(out["dataset"]) == {"tiny-bench", "tiny-arch"}
    row = out[out.dataset == "tiny-bench"].iloc[0]
    assert row["n_ts"] == 4
    assert row["len_min"] >= 1600 and row["len_max"] <= 2600


# ---------------- Table 2 --------------------------------------------
def test_complexity_measurement_and_fit():
    times = measure_update_times(
        window_sizes=(2000, 8000), n_points=400,
        methods=["class", "ddm"])
    assert len(times) == 4
    assert (times["sec_per_update"] > 0).all()

    def ratio(m):
        grp = times[times.method == m].sort_values("d")
        return (grp["sec_per_update"].iloc[1]
                / grp["sec_per_update"].iloc[0])

    # ClaSS update cost grows with d (O(d), modulo the Python constant
    # of ~200us/update); DDM's is window-independent (O(1)).
    assert ratio("class") > 1.7
    assert ratio("ddm") < 1.5
    fits = fit_exponents(times)
    assert set(fits["method"]) == {"class", "ddm"}
    assert fits["fitted_exponent"].notna().all()
    table2 = run_table2(times)
    assert len(table2) == 9
    assert table2["fitted_exponent"].notna().sum() == 2


# ---------------- Table 3 --------------------------------------------
def test_evaluate_method_scores(spark, tiny_corpus):
    sc = evaluate_method(spark, tiny_corpus, "class", {"d": 800})
    assert len(sc) == len(tiny_corpus)
    assert ((sc["covering"] >= 0) & (sc["covering"] <= 1)).all()
    assert set(sc["method"]) == {"class"}


def test_tune_method_picks_grid_value(spark, tiny_corpus):
    dev = tiny_corpus[:2]
    p = tune_method(spark, dev, "ddm")
    assert p["drift_level"] in METHODS["ddm"].grid["drift_level"]
    # a method without a grid returns its fixed params
    assert tune_method(spark, dev, "class") == METHODS["class"].params


def test_summarize_with_oracle(spark):
    scores = pd.DataFrame({
        "method": ["a"] * 4 + ["b"] * 4,
        "collection": ["benchmark", "benchmark", "archive", "archive"] * 2,
        "series_id": [f"s{i}" for i in range(4)] * 2,
        "covering": [0.9, 0.7, 0.5, 0.3, 0.6, 0.6, 0.2, 0.4],
    })
    out = summarize_with_oracle(spark, scores)
    assert len(out) == 4
    a_bench = out[(out.method == "a") & (out.collection == "benchmark")]
    assert np.isclose(a_bench["mean_pct"].iloc[0], 80.0)
    assert np.isclose(a_bench["median_pct"].iloc[0], 80.0)


def test_run_table3_end_to_end_tiny(spark, tiny_corpus):
    out = run_table3(spark, seed=0, tune=False, records=tiny_corpus,
                     methods=["class", "ddm"])
    assert set(out["tuned"]) == {"class", "ddm"}
    assert len(out["scores"]) == 2 * len(tiny_corpus)
    assert set(out["summary"]["method"]) == {"class", "ddm"}
    for coll, ranks in out["ranks"].items():
        assert set(ranks.index) == {"class", "ddm"}
        assert out["nemenyi_cd"][coll] > 0


def test_annotated_widths_map(tiny_corpus):
    widths = annotated_widths(tiny_corpus, "floss")
    assert len(widths) == len(tiny_corpus)
    for r in tiny_corpus:
        assert widths[r.series_id]["w"] == r.period
    assert annotated_widths(tiny_corpus, "class") == {}


# ---------------- throughput -----------------------------------------
def test_test_stream_has_cps():
    series, cps = _test_stream(5000)
    assert len(series) == 5000
    assert cps == [2000, 4000]


def _frozen_test_stream(n, seed):
    """``_test_stream`` as it was written before it used ``gen_segment``;
    the committed stream-d10k reference CPs were computed on its output."""
    rng = np.random.default_rng(seed)
    parts, cps, pos = [], [], 0
    kinds = ["sine", "square", "saw"]
    i = 0
    while pos < n:
        ln = min(2000, n - pos)
        t = np.arange(ln)
        p = 20 + 13 * (i % 3)
        k = kinds[i % 3]
        if k == "sine":
            x = np.sin(2 * np.pi * t / p)
        elif k == "square":
            x = np.sign(np.sin(2 * np.pi * t / p))
        else:
            x = 2 * ((t / p) % 1) - 1
        parts.append(x + 0.1 * rng.standard_normal(ln))
        pos += ln
        if pos < n:
            cps.append(pos)
        i += 1
    return np.concatenate(parts), cps


@pytest.mark.parametrize("n", [5000, 8000, 12345, 60000])
def test_test_stream_bytes_unchanged(n):
    for seed in range(8):
        series, cps = _test_stream(n, seed)
        old, old_cps = _frozen_test_stream(n, seed)
        assert series.tobytes() == old.tobytes(), seed
        assert cps == old_cps


def test_sweep_window_size_direction():
    # Table 2's timer: each d's steady state after its warm-up, the two
    # d taking turns every BLOCK updates, so both see the same load.
    times = measure_update_times(window_sizes=(400, 1200), methods=["class"])
    out = sweep_window_size(times, ds=(400, 1200), n=5000)
    # larger window must cost throughput
    tput = out.set_index("d")["points_per_sec"]
    assert tput[1200] < tput[400]
    assert out["covering_pct"].between(0, 100).all()
