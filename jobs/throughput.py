"""Regenerate Section 4.4 throughput numbers (standalone per-method
throughput and the window-size sweep).  The Structured Streaming
operator's throughput is measured by ``python3 perfbench/run.py
--workload operator-keys``.

Usage: python jobs/throughput.py [--n 8000]
"""
from __future__ import annotations

import argparse

from repro.harness.throughput import standalone_throughput, sweep_window_size


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=8000)
    args = ap.parse_args()
    methods = {
        "hddm": {}, "ddm": {}, "adwin": {}, "newma": {"w": 25},
        "window": {"w": 25}, "changefinder": {},
        "class": {"d": 1000}, "floss": {"d": 1000, "w": 25},
    }
    print("\n=== Standalone throughput (single core) ===")
    print(standalone_throughput(methods, n=args.n).to_string(index=False))
    print("\n=== Window size sweep (throughput vs Covering) ===")
    print(sweep_window_size(n=args.n).to_string(index=False))


if __name__ == "__main__":
    main()
