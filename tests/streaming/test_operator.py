"""The Structured Streaming ClaSS operator (the paper's Flink port, S2)
must produce exactly the CPs of the standalone per-point run."""
import numpy as np
import pytest

from repro.core.class_stream import ClaSS, ClaSSConfig
from repro.streaming.operator import (run_file_stream, write_stream_chunks)
from tests.core.test_class_stream import WARMUP_CPS, warmup_cp_series


def _series(seed=0, n=1400):
    rng = np.random.default_rng(seed)
    a = np.sin(2 * np.pi * np.arange(n) / 20)
    b = np.sign(np.sin(2 * np.pi * np.arange(n) / 31))
    return (np.concatenate([a, b])
            + 0.05 * rng.standard_normal(2 * n))


def test_operator_equals_standalone_single_series(spark, tmp_path):
    s = _series()
    write_stream_chunks("s1", s, str(tmp_path / "in"), n_chunks=6)
    out = run_file_stream(spark, str(tmp_path / "in"),
                          str(tmp_path / "ckpt"), d=800)
    offline = ClaSS(ClaSSConfig(d=800)).run(s)
    assert offline  # the fixture signal must contain a detectable CP
    assert out["cp"].tolist() == offline


def test_operator_emits_warmup_change_points(spark, tmp_path):
    """The micro-batch that completes the warm-up must emit every CP the
    replay finds, not only the latest."""
    s = warmup_cp_series()
    write_stream_chunks("w", s, str(tmp_path / "in"), n_chunks=3)
    out = run_file_stream(spark, str(tmp_path / "in"),
                          str(tmp_path / "ckpt"), d=1000)
    assert out["cp"].tolist() == WARMUP_CPS


def test_operator_multiple_series_keyed_state(spark, tmp_path):
    sa, sb = _series(seed=1), _series(seed=2, n=1200)
    write_stream_chunks("a", sa, str(tmp_path / "in"), n_chunks=4)
    write_stream_chunks("b", sb, str(tmp_path / "in"), n_chunks=4)
    out = run_file_stream(spark, str(tmp_path / "in"),
                          str(tmp_path / "ckpt"), d=800)
    for sid, series in (("a", sa), ("b", sb)):
        offline = ClaSS(ClaSSConfig(d=800)).run(series)
        got = out[out.series_id == sid]["cp"].tolist()
        assert got == offline, sid


def test_operator_single_batch_equivalent(spark, tmp_path):
    """Chunking must not matter: one big chunk == many small ones."""
    s = _series(seed=3)
    write_stream_chunks("x", s, str(tmp_path / "one"), n_chunks=1)
    a = run_file_stream(spark, str(tmp_path / "one"),
                        str(tmp_path / "ck1"), d=800)
    write_stream_chunks("x", s, str(tmp_path / "many"), n_chunks=10)
    b = run_file_stream(spark, str(tmp_path / "many"),
                        str(tmp_path / "ck2"), d=800)
    assert a["cp"].tolist() == b["cp"].tolist()
