"""Table 2 — competitor specification, empirically validated.

Table 2 of the paper is a specification: per method, the per-update
complexity class and the segmentation principle.  We reproduce it by
*measurement*: every detector runs over streams with growing
window-size parameters, the mean per-point update time is recorded, and
the growth exponent of update time vs window size is fitted by log-log
regression.  Methods whose update is independent of the window
(O(1)/O(log c) or fixed small c) should fit an exponent near 0; ClaSS
and FLOSS (O(d)) near 1; this validates the complexity column without
the authors' hardware.

One Spark task times every cell, round-robin, keeping each cell's
fastest of ``REPEATS``: machine load drifts over seconds and moves a
single timing up to 2x.
"""
from __future__ import annotations

import copy
import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

__all__ = ["TABLE2_SPEC", "measure_update_times", "fit_exponents", "run_table2"]

REPEATS = 5

# The paper's Table 2 rows (complexity class + segmentation method).
TABLE2_SPEC = pd.DataFrame([
    ("bocd", "O(n)", "Bayesian probability"),
    ("floss", "O(d log d)", "Matrix profile"),
    ("class", "O(d)", "Self-supervision"),
    ("changefinder", "O(c^2)", "Moving averages"),
    ("window", "O(c)", "Autoregressive cost"),
    ("newma", "O(c)", "Moving averages"),
    ("adwin", "O(log c)", "Adaptive Statistics"),
    ("ddm", "O(1)", "Model error"),
    ("hddm", "O(1)", "Hoeffding's inequality"),
], columns=["method", "update_complexity", "segmentation_method"])

# How the swept "window size" maps to each detector's parameter; methods
# with no window knob (constant update) repeat their fixed config.
_SWEEP_PARAM = {
    "class": lambda d: {"d": d, "w": max(10, d // 50)},
    "floss": lambda d: {"d": d, "w": max(10, d // 50)},
    "window": lambda d: {"w": max(10, d // 50), "stride": 1},
    "newma": lambda d: {"w": max(10, d // 50)},
    "changefinder": lambda d: {},
    "bocd": lambda d: {},
    "ddm": lambda d: {},
    "hddm": lambda d: {},
    "adwin": lambda d: {},
}


def _time_cells(cells: list[tuple[str, int]], n_points: int,
                seed: int) -> list[float]:
    """Mean per-point update seconds per (method, d) cell on the
    post-warm-up steady state: the fastest of ``REPEATS`` round-robin
    rounds, each timing a copy of every cell's warmed-up detector."""
    from repro.baselines.base import make_detector

    warm = []
    for m, d in cells:
        rng = np.random.default_rng(seed)
        t = np.arange(n_points + d)
        series = np.sin(2 * np.pi * t / 29) + 0.2 * rng.standard_normal(len(t))
        det = make_detector(m, **_SWEEP_PARAM[m](d))
        det.feed(series[:d])
        warm.append((det, series[d:]))
    best = np.full(len(cells), np.inf)
    for _ in range(REPEATS):
        for i, (det, rest) in enumerate(warm):
            run = copy.deepcopy(det)
            t0 = time.perf_counter()
            run.feed(rest)
            best[i] = min(best[i], time.perf_counter() - t0)
    return list(best / n_points)


def measure_update_times(spark: SparkSession,
                         window_sizes=(500, 1000, 2000, 4000),
                         n_points: int = 1500,
                         methods: list[str] | None = None,
                         seed: int = 0) -> pd.DataFrame:
    """(method, d) grid of mean per-point update times, timed in one
    Spark task."""
    methods = methods or list(_SWEEP_PARAM)
    cells = [(m, int(d)) for m in methods for d in window_sizes]
    secs = spark.sparkContext.parallelize([cells], 1).map(
        lambda cs: _time_cells(cs, n_points, seed)).first()
    return pd.DataFrame([(*c, s) for c, s in zip(cells, secs)],
                        columns=["method", "d", "sec_per_update"])


def fit_exponents(times: pd.DataFrame) -> pd.DataFrame:
    """Log-log slope of update time vs window size per method."""
    rows = []
    for m, grp in times.groupby("method"):
        x = np.log(grp["d"].to_numpy(dtype=float))
        y = np.log(grp["sec_per_update"].to_numpy(dtype=float))
        slope = float(np.polyfit(x, y, 1)[0]) if len(grp) > 1 else float("nan")
        rows.append({"method": m, "fitted_exponent": round(slope, 3),
                     "usec_at_max_d": round(
                         grp["sec_per_update"].iloc[-1] * 1e6, 2)})
    return pd.DataFrame(rows)


def run_table2(spark: SparkSession, **kw) -> pd.DataFrame:
    """Table 2 spec joined with the measured growth exponents."""
    times = measure_update_times(spark, **kw)
    fits = fit_exponents(times)
    return TABLE2_SPEC.merge(fits, on="method", how="left")
