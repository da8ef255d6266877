"""Regenerate Table 3 (summary Covering of ClaSS + 8 competitors).

Runs the full pipeline: corpus generation, dev-split hyper-parameter
tuning, the 9-method Spark fan-out, oracle-checked aggregation, and the
Figure 5-style mean ranks.

Usage: python jobs/table3_covering.py [--seed 0] [--no-tune]
                                      [--methods class,floss,...]
"""
from __future__ import annotations

import argparse

from _session import get_session


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--no-tune", action="store_true")
    ap.add_argument("--methods", type=str, default=None)
    args = ap.parse_args()
    spark = get_session("table3")
    from repro.harness.evaluate import run_table3

    methods = args.methods.split(",") if args.methods else None
    out = run_table3(spark, seed=args.seed, tune=not args.no_tune,
                     methods=methods)
    print("\n=== Tuned parameters (dev split) ===")
    for m, p in out["tuned"].items():
        print(f"  {m:13s} {p}")
    print("\n=== Table 3 (Covering %, mean/median/std, oracle-checked) ===")
    print(out["summary"].to_string(index=False))
    for coll in out["ranks"]:
        print(f"\n=== Mean ranks ({coll}) — lower is better; "
              f"Nemenyi CD={out['nemenyi_cd'][coll]:.2f} ===")
        print(out["ranks"][coll].round(2).to_string())
        print(f"--- wins/ties ({coll}) ---")
        print(out["wins"][coll].to_string())
    spark.stop()


if __name__ == "__main__":
    main()
