"""Spark fan-out must reproduce the sequential per-series runs exactly."""
import numpy as np
import pytest

from repro.baselines.base import make_detector
from repro.datasets.archives import (CollectionSpec, TSRecord, corpus_to_spark,
                                     make_corpus)
from repro.streaming.batch_apply import segment_corpus_spark
from tests.core.test_class_stream import WARMUP_CPS, warmup_cp_series

TINY = (CollectionSpec("tiny-bench", "benchmark", 3, (1500, 2500), (2, 3),
                       (0.05, 0.1)),)


@pytest.fixture(scope="module")
def tiny_corpus():
    return make_corpus(seed=3, collections=TINY)


@pytest.mark.parametrize("method,params", [
    ("class", {"d": 800}),
    ("ddm", {"drift_level": 3.0}),
    ("adwin", {}),
])
def test_parallel_equals_sequential(spark, tiny_corpus, method, params):
    df = corpus_to_spark(spark, tiny_corpus)
    res = segment_corpus_spark(df, method, params)
    for rec in tiny_corpus:
        det = make_detector(method, **params)
        det.run(rec.values)
        expected = det.change_points
        got = sorted(int(c) for c in
                     res[(res.series_id == rec.series_id) & (res.cp >= 0)]["cp"])
        assert got == expected, rec.series_id


def test_warmup_change_points_reach_the_batch_plane(spark):
    rec = TSRecord("benchmark", "warmup", "w0", warmup_cp_series(),
                   WARMUP_CPS, 20)
    res = segment_corpus_spark(corpus_to_spark(spark, [rec]), "class",
                               {"d": 1000})
    assert sorted(int(c) for c in res[res.cp >= 0]["cp"]) == WARMUP_CPS


def test_sentinel_row_always_present(spark, tiny_corpus):
    df = corpus_to_spark(spark, tiny_corpus)
    res = segment_corpus_spark(df, "hddm", {"drift_confidence": 1e-60})
    for rec in tiny_corpus:
        sub = res[res.series_id == rec.series_id]
        assert (sub.cp == -1).sum() == 1
        assert (sub.n == rec.n).all()
        assert (sub.elapsed > 0).all()


def test_per_series_params_override(spark, tiny_corpus):
    df = corpus_to_spark(spark, tiny_corpus)
    widths = {r.series_id: {"w": int(r.period)} for r in tiny_corpus}
    res = segment_corpus_spark(df, "floss", {"d": 800}, widths)
    for rec in tiny_corpus:
        det = make_detector("floss", d=800, w=int(rec.period))
        expected = det.run(rec.values)
        got = sorted(int(c) for c in
                     res[(res.series_id == rec.series_id) & (res.cp >= 0)]["cp"])
        assert got == expected
