"""Section 4.4 — the window-size sweep and its test stream.

The sliding-window-size sweep, whose diminishing-returns shape motivates
the d=10k default (Figure 6 right, reported as numbers), reads ClaSS's
throughput from Table 2's steady-state timings
(:func:`repro.harness.complexity.measure_update_times`) and adds the
Covering of an untimed run per d at the same settings.  The standalone
throughput per method is the same grid's d=1000 column;
``python jobs/table2_complexity.py`` prints both.  The Structured
Streaming operator's throughput (the paper's Flink window operator) is
the ``operator-keys`` workload of ``perfbench/``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.datasets.generators import Regime, gen_segment
from repro.methods import make_detector, sweep_params
from repro.metrics.covering import covering

__all__ = ["sweep_window_size"]


def _test_stream(n: int, seed: int = 0) -> tuple[np.ndarray, list[int]]:
    """A stream with a CP every 2000 points (alternating wave shapes)."""
    rng = np.random.default_rng(seed)
    starts = range(0, n, 2000)
    parts = [gen_segment(Regime(("sine", "square", "sawtooth")[i % 3],
                                20 + 13 * (i % 3)),
                         min(2000, n - s), rng, 0.1)
             for i, s in enumerate(starts)]
    return np.concatenate(parts), list(starts[1:])


def sweep_window_size(times: pd.DataFrame, ds=(500, 1000, 2000),
                      n: int = 8000, seed: int = 0) -> pd.DataFrame:
    """Throughput and Covering vs sliding window size d (Fig. 6 right):
    ClaSS's points/s at each d in ``ds`` from a ``measure_update_times``
    frame, beside the Covering of the same configuration (Table 2's
    cell) on ``_test_stream(n, seed)``.  Larger d must cost
    throughput."""
    series, cps = _test_stream(n, seed)
    sec = times[times.method == "class"].set_index("d")["sec_per_update"]

    def covering_pct(d: int) -> float:
        det = make_detector("class", **sweep_params("class", d))
        return round(100 * covering(cps, det.feed(series), n), 2)

    return pd.DataFrame([
        {"d": int(d), "points_per_sec": round(1 / sec[d], 1),
         "covering_pct": covering_pct(int(d))}
        for d in ds])
