"""Tests for the synthetic corpus (DESIGN.md S1) and its generators."""
import numpy as np
import pytest

from repro.datasets.archives import (COLLECTIONS, _MIN_SEGMENT,
                                     CollectionSpec, TSRecord,
                                     corpus_to_spark, make_corpus,
                                     table1_stats)
from repro.datasets.generators import (FAMILIES, Regime, distinct_regime,
                                       gen_segment, sample_regime)

TINY = (CollectionSpec("tiny-bench", "benchmark", 3, (1500, 2500), (1, 3),
                       (0.05, 0.1)),
        CollectionSpec("tiny-arch", "archive", 2, (2000, 3000), (2, 3),
                       (0.1, 0.2), ("sine", "pulse", "noise"), True))


# ---------------- generators -----------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
def test_families_produce_finite_signal(family):
    rng = np.random.default_rng(0)
    reg = Regime(family, period=20, amplitude=1.5, param=0.8)
    x = gen_segment(reg, 500, rng, noise=0.1)
    assert x.shape == (500,)
    assert np.isfinite(x).all()
    assert x.std() > 0


def test_periodic_families_have_right_period():
    rng = np.random.default_rng(1)
    for fam in ("sine", "square", "sawtooth", "triangle"):
        x = gen_segment(Regime(fam, period=25), 1000, rng, noise=0.0)
        # autocorrelation at lag 25 should be ~1
        x0 = x - x.mean()
        ac = float(x0[:-25] @ x0[25:] / (x0 @ x0))
        assert ac > 0.9, fam


def test_unknown_family_raises():
    with pytest.raises(ValueError):
        gen_segment(Regime("wavelet"), 10, np.random.default_rng(0))


def test_distinct_regime_differs():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = sample_regime(rng)
        b = distinct_regime(a, rng)
        if a.family == b.family:
            ratio = max(a.period, b.period) / min(a.period, b.period)
            assert ratio >= 1.6
        else:
            assert a.family != b.family


# ---------------- corpus ---------------------------------------------
def test_corpus_matches_spec_counts():
    corpus = make_corpus()
    by_ds = {}
    for r in corpus:
        by_ds.setdefault(r.dataset, []).append(r)
    for spec in COLLECTIONS:
        recs = by_ds[spec.dataset]
        assert len(recs) == spec.n_series
        for r in recs:
            assert spec.length_range[0] <= r.n <= spec.length_range[1]
            assert r.collection == spec.collection


def test_corpus_deterministic():
    a = make_corpus(seed=1, collections=TINY)
    b = make_corpus(seed=1, collections=TINY)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.values, rb.values)
        assert ra.change_points == rb.change_points
    c = make_corpus(seed=2, collections=TINY)
    assert not np.array_equal(a[0].values, c[0].values)


def test_change_points_valid_and_min_segment():
    for r in make_corpus():
        assert r.change_points == sorted(set(r.change_points))
        bounds = [0, *r.change_points, r.n]
        assert all(0 < c < r.n for c in r.change_points)
        seg_lens = np.diff(bounds)
        assert seg_lens.min() >= _MIN_SEGMENT
        assert r.n_segments == len(seg_lens)


def test_annotated_period_in_sane_range():
    for r in make_corpus(collections=TINY):
        assert 10 <= r.period <= 50


def test_corpus_frame_is_one_row_per_series_longest_first(spark):
    corpus = make_corpus(collections=TINY)
    # Same length as corpus[1] but later in the input: the tie goes to
    # corpus[1].
    tie = corpus[1]
    corpus.append(TSRecord(tie.collection, tie.dataset, "tie",
                           tie.values[::-1].copy(), [], tie.period))
    df = corpus_to_spark(spark, corpus)
    assert df.columns == ["collection", "dataset", "series_id", "n",
                          "slot", "values"]
    rows = {r.series_id: r for r in df.collect()}
    assert len(rows) == len(corpus)

    by_length = sorted(range(len(corpus)), key=lambda i: -corpus[i].n)
    for slot, i in enumerate(by_length):
        rec, row = corpus[i], rows[corpus[i].series_id]
        assert row.slot == slot
        assert (row.collection, row.dataset, row.n) == (rec.collection,
                                                         rec.dataset, rec.n)
        assert (np.asarray(row["values"], dtype=np.float64).tobytes()
                == rec.values.tobytes())
    assert rows["tie"].slot == rows[tie.series_id].slot + 1


def test_table1_stats_consistent():
    corpus = make_corpus()
    t1 = table1_stats(corpus)
    assert t1["n_ts"].sum() == len(corpus)
    assert set(t1["dataset"]) == {s.dataset for s in COLLECTIONS}
    row = t1[t1.dataset == "tssb-lite"].iloc[0]
    assert row["len_min"] >= 2000 and row["len_max"] <= 5000
    assert (t1["segs_max"] >= t1["segs_median"]).all()
    assert (t1["segs_median"] >= t1["segs_min"]).all()


def test_archive_contamination_present():
    """Archive series must carry drift: their start/end level should
    wander more than benchmark series of similar noise."""
    corpus = make_corpus()
    arch = [r for r in corpus if r.collection == "archive"]
    assert len(arch) == 44
    bench = [r for r in corpus if r.collection == "benchmark"]
    assert len(bench) == 35
