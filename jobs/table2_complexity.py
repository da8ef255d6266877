"""Regenerate Table 2 (competitor spec + measured update complexity) and
the Section 4.4 runtime numbers from one timed grid: the standalone
throughput per method (the grid's d=1000 column) and the window-size
sweep (ClaSS's rows at d = 500, 1000, 2000, with Covering from an
untimed run).  The Structured Streaming operator's throughput is
measured by ``python3 perfbench/run.py --workload operator-keys``.

Times every detector in this process; no Spark session is started.

Usage: python jobs/table2_complexity.py
"""
from __future__ import annotations

import time

from repro.harness.complexity import measure_update_times, run_table2
from repro.harness.throughput import sweep_window_size


def main() -> None:
    t0 = time.perf_counter()
    times = measure_update_times()
    print("\n=== Table 2 (spec + fitted update-time growth exponent) ===")
    print(run_table2(times).to_string(index=False))
    at = times[times.d == 1000]
    tput = at.assign(points_per_sec=(1 / at.sec_per_update).round(1))
    print("\n=== Section 4.4: standalone throughput at d=1000 ===")
    print(tput.sort_values("points_per_sec", ascending=False)
          [["method", "points_per_sec"]].to_string(index=False))
    print("\n=== Window size sweep (throughput vs Covering) ===")
    print(sweep_window_size(times).to_string(index=False))
    print(f"\nwall time: {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
