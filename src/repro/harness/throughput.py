"""Section 4.4 — runtime and throughput measurements.

Reproduces, at container scale, the paper's standalone data-throughput
experiment (points/second per method, single detector instance) and the
sliding-window-size sweep whose diminishing-returns shape motivates the
d=10k default (Figure 6 right — reported as numbers, not a figure).  The
Structured Streaming operator's throughput (the paper's Flink window
operator) is the ``operator-keys`` workload of ``perfbench/``.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core.class_stream import ClaSS, ClaSSConfig
from repro.datasets.generators import Regime, gen_segment
from repro.metrics.covering import covering

__all__ = ["standalone_throughput", "sweep_window_size"]


def _test_stream(n: int, seed: int = 0) -> tuple[np.ndarray, list[int]]:
    """A stream with a CP every 2000 points (alternating wave shapes)."""
    rng = np.random.default_rng(seed)
    starts = range(0, n, 2000)
    parts = [gen_segment(Regime(("sine", "square", "sawtooth")[i % 3],
                                20 + 13 * (i % 3)),
                         min(2000, n - s), rng, 0.1)
             for i, s in enumerate(starts)]
    return np.concatenate(parts), list(starts[1:])


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
