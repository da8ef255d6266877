"""Table 2 — competitor specification, empirically validated.

Table 2 of the paper is a specification: per method, the per-update
complexity class and the segmentation principle.  We reproduce it by
*measurement*: every detector runs over streams with growing
window-size parameters (``repro.methods.sweep_params``), the mean
per-point update time is recorded, and the growth exponent of update
time vs window size is fitted by log-log regression.  Methods whose
update is independent of the window (O(1)/O(log c) or fixed small c)
should fit an exponent near 0; ClaSS and FLOSS (O(d)) near 1; this
validates the complexity column without the authors' hardware.

The calling process times every cell, keeping each cell's fastest of
``REPEATS`` rounds: machine load drifts over seconds and moves a single
timing up to 2x.  Within a round one method's cells take turns every
``BLOCK`` updates, so the window sizes a fit compares run under the
same load; a whole run per turn let a load change flip ClaSS's
d=400 vs d=1200 order.  Methods take turns only between whole runs, so
a method's cells do not run on caches another method just filled.
This grid is the harness's one timer: the Section 4.4 throughput per
method is its d=1000 column and the window sweep
(``harness.throughput.sweep_window_size``) reads ClaSS's rows.
"""
from __future__ import annotations

import copy
import time

import numpy as np
import pandas as pd

from repro.methods import METHODS, make_detector, sweep_params

__all__ = ["measure_update_times", "fit_exponents", "run_table2"]

REPEATS = 5
BLOCK = 100   # updates per turn of a cell within a round


def measure_update_times(window_sizes=(500, 1000, 2000, 4000),
                         n_points: int = 1500,
                         methods: list[str] | None = None,
                         seed: int = 0) -> pd.DataFrame:
    """(method, d) grid of mean per-point update times on the
    post-warm-up steady state: the fastest of ``REPEATS`` rounds, each
    timing a copy of every cell's warmed-up detector, one method's
    cells taking turns every ``BLOCK`` updates."""
    methods = methods or list(METHODS)
    cells = [(m, int(d)) for m in methods for d in window_sizes]
    warm = []
    for m, d in cells:
        rng = np.random.default_rng(seed)
        t = np.arange(n_points + d)
        series = np.sin(2 * np.pi * t / 29) + 0.2 * rng.standard_normal(len(t))
        det = make_detector(m, **sweep_params(m, d))
        det.feed(series[:d])
        warm.append((det, series[d:]))
    nd = len(window_sizes)
    sec = np.zeros((REPEATS, len(cells)))
    for r in range(REPEATS):
        for g in range(0, len(cells), nd):     # one method's cells
            runs = [copy.deepcopy(det) for det, _ in warm[g:g + nd]]
            for lo in range(0, n_points, BLOCK):
                for i, run in enumerate(runs, g):
                    t0 = time.perf_counter()
                    run.feed(warm[i][1][lo:lo + BLOCK])
                    sec[r, i] += time.perf_counter() - t0
    best = sec.min(axis=0)
    return pd.DataFrame([(*c, t / n_points) for c, t in zip(cells, best)],
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


def run_table2(times: pd.DataFrame) -> pd.DataFrame:
    """Table 2's rows (complexity class and segmentation method, in the
    paper's order) joined with the growth exponents fitted to a
    ``measure_update_times`` frame."""
    spec = pd.DataFrame(
        [(name, m.update_complexity, m.segmentation_method)
         for name, m in METHODS.items()],
        columns=["method", "update_complexity", "segmentation_method"])
    return spec.merge(fit_exponents(times), on="method", how="left")
