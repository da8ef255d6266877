"""Regenerate Table 1 (corpus technical specification).

Usage: python jobs/table1_datasets.py  [--seed 0]
"""
from __future__ import annotations

import argparse

from _session import get_session


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    spark = get_session("table1")
    from repro.datasets.archives import make_corpus
    from repro.harness.table1 import run_table1

    out = run_table1(spark, make_corpus(args.seed))
    print("\n=== Table 1 (corpus specification, DuckDB-verified) ===")
    print(out.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
