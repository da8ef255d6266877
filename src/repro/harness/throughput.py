"""Section 4.4 — runtime and throughput measurements.

Reproduces, at container scale, the paper's standalone data-throughput
experiment (points/second per method, single detector instance) and the
stream-engine operator throughput (the paper's Flink window operator;
here the Structured Streaming port of DESIGN.md S2), plus the
sliding-window-size sweep whose diminishing-returns shape motivates the
d=10k default (Figure 6 right — reported as numbers, not a figure).
"""
from __future__ import annotations

import tempfile
import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.class_stream import ClaSS, ClaSSConfig
from repro.metrics.covering import covering

__all__ = ["standalone_throughput", "operator_throughput", "sweep_window_size"]


def _test_stream(n: int, seed: int = 0) -> tuple[np.ndarray, list[int]]:
    """A stream with a CP every 2000 points (alternating wave shapes)."""
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


def standalone_throughput(methods: dict[str, dict], n: int = 8000,
                          seed: int = 0) -> pd.DataFrame:
    """Points/second of each detector on one core (paper Fig. 6 bottom
    left).  ``methods`` maps name -> params."""
    from repro.baselines.base import make_detector

    series, _ = _test_stream(n, seed)
    rows = []
    for name, params in methods.items():
        det = make_detector(name, **params)
        t0 = time.perf_counter()
        det.feed(series)
        el = time.perf_counter() - t0
        rows.append({"method": name, "points_per_sec": round(n / el, 1),
                     "total_sec": round(el, 3)})
    return pd.DataFrame(rows).sort_values(
        "points_per_sec", ascending=False).reset_index(drop=True)


def operator_throughput(spark: SparkSession, n: int = 8000, d: int = 1000,
                        n_chunks: int = 8, seed: int = 0) -> dict:
    """Throughput of the Structured Streaming ClaSS operator (paper:
    "Apache Flink Data Throughput", ~1k points/s/stream)."""
    from repro.streaming.operator import run_file_stream, write_stream_chunks

    series, _ = _test_stream(n, seed)
    with tempfile.TemporaryDirectory() as tmp:
        write_stream_chunks("tput", series, tmp + "/in", n_chunks=n_chunks)
        t0 = time.perf_counter()
        out = run_file_stream(spark, tmp + "/in", tmp + "/ckpt", d=d)
        el = time.perf_counter() - t0
    return {"n_points": n, "elapsed_sec": round(el, 2),
            "points_per_sec": round(n / el, 1), "n_cps": len(out)}


def sweep_window_size(ds=(500, 1000, 2000), n: int = 8000,
                      seed: int = 0) -> pd.DataFrame:
    """Throughput and Covering vs sliding window size d (Fig. 6 right):
    larger d must cost throughput while Covering saturates."""
    series, cps = _test_stream(n, seed)
    rows = []
    for d in ds:
        cls = ClaSS(ClaSSConfig(d=int(d)))
        t0 = time.perf_counter()
        pred = cls.feed(series)
        el = time.perf_counter() - t0
        rows.append({"d": int(d),
                     "points_per_sec": round(n / el, 1),
                     "covering_pct": round(
                         100 * covering(cps, pred, n), 2)})
    return pd.DataFrame(rows)
