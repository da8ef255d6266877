"""The Structured Streaming ClaSS operator (the paper's Flink port, S2)
must produce exactly the CPs of the standalone per-point run."""
import json
import os

import numpy as np

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
    offline = ClaSS(ClaSSConfig(d=800)).feed(s)
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
        offline = ClaSS(ClaSSConfig(d=800)).feed(series)
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


def test_operator_restarts_from_checkpoint(spark, tmp_path):
    """A rerun on the same checkpoint resumes the query: it feeds only
    the chunk files added since, from the keys' checkpointed state, and
    keeps the shuffle partition count the checkpoint started with."""
    s = _series(seed=4)
    staged, in_dir, ckpt = (str(tmp_path / d)
                            for d in ("staged", "in", "ckpt"))
    write_stream_chunks("r", s, staged, n_chunks=4)
    chunks = sorted(os.listdir(staged))
    os.makedirs(in_dir)

    def arrive(names):  # a rename keeps t and the increasing mtimes
        for name in names:
            os.rename(os.path.join(staged, name), os.path.join(in_dir, name))

    default = spark.conf.get("spark.sql.shuffle.partitions")
    arrive(chunks[:2])
    spark.conf.set("spark.sql.shuffle.partitions", 64)
    try:
        first = run_file_stream(spark, in_dir, ckpt, d=800)
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", default)
    arrive(chunks[2:])
    out = run_file_stream(spark, in_dir, ckpt, d=800)

    offline = ClaSS(ClaSSConfig(d=800)).feed(s)
    assert offline
    assert first["cp"].tolist() == []  # the CP is found after the restart
    assert out["cp"].tolist() == offline
    # the resumed query's last micro-batch ran at the checkpoint's count
    offsets = os.path.join(ckpt, "offsets")
    last = max((f for f in os.listdir(offsets) if f.isdigit()), key=int)
    with open(os.path.join(offsets, last)) as f:
        conf = json.loads(f.read().splitlines()[1])["conf"]
    assert last == "3"  # two chunk files per run, one micro-batch each
    assert conf["spark.sql.shuffle.partitions"] == "64"
