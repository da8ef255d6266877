"""Regenerate Table 2 (competitor spec + measured update complexity).

Times every detector in this process; no Spark session is started.

Usage: python jobs/table2_complexity.py
"""
from __future__ import annotations

from repro.harness.complexity import run_table2


def main() -> None:
    out = run_table2()
    print("\n=== Table 2 (spec + fitted update-time growth exponent) ===")
    print(out.to_string(index=False))


if __name__ == "__main__":
    main()
