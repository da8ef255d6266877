"""Table 3 evaluation pipeline: Covering of ClaSS + 8 competitors.

Protocol (paper Section 4.1):

1. hyper-parameters of every competitor are tuned on a 20% random dev
   split of the *benchmark* series (grid per method, best mean
   Covering);
2. every method then runs over the full corpus — one Spark group per
   series via ``applyInPandas`` (the paper's one-point-at-a-time
   streaming simulation, parallelised);
3. per-series Covering scores are aggregated to the paper's summary
   (mean / median / std, in %) per collection with Spark SQL, and the
   aggregation is verified row-for-row against DuckDB through
   ``repro.oracle.assert_equivalent``;
4. mean ranks and wins reproduce the Figure 5 ordering (who leads, and
   whether the lead exceeds the Nemenyi critical difference).

Each method's fixed parameters, tuning grid and annotated-width flag
come from :data:`repro.methods.METHODS`.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.archives import TSRecord, corpus_to_spark, make_corpus
from repro.methods import METHODS
from repro.metrics.covering import covering
from repro.metrics.ranks import mean_ranks, nemenyi_cd, wins_and_ties
from repro.streaming.batch_apply import segment_corpus_spark

__all__ = ["annotated_widths", "evaluate_method",
           "tune_method", "run_table3", "summarize_with_oracle"]

# Share of the benchmark series in the tuning dev split (paper: 20%).
DEV_FRAC = 0.2


def annotated_widths(records: list[TSRecord], method: str) -> dict[str, dict]:
    """series_id -> {"w": annotated pattern period} for a method that
    takes the annotated width, else no per-series params."""
    if not METHODS[method].width:
        return {}
    return {r.series_id: {"w": int(r.period)} for r in records}


def _scores_from_results(res: pd.DataFrame,
                         records: list[TSRecord]) -> pd.DataFrame:
    """Join predicted CPs with ground truth into per-series Covering."""
    truth = {r.series_id: r for r in records}
    rows = []
    for sid, grp in res.groupby("series_id"):
        rec = truth[sid]
        cps = [int(c) for c in grp["cp"] if c >= 0]
        rows.append({
            "collection": rec.collection,
            "dataset": rec.dataset,
            "series_id": sid,
            "covering": covering(rec.change_points, cps, rec.n),
            "n": rec.n,
            "n_pred": len(cps),
            "elapsed": float(grp["elapsed"].iloc[0]),
        })
    return pd.DataFrame(rows)


def evaluate_method(spark: SparkSession, records: list[TSRecord],
                    method: str, params: dict | None = None) -> pd.DataFrame:
    """Per-series Covering (+ timing) of one method over ``records``."""
    p = {**METHODS[method].params, **(params or {})}
    df = corpus_to_spark(spark, records)
    res = segment_corpus_spark(df, method, p,
                               annotated_widths(records, method))
    out = _scores_from_results(res, records)
    out.insert(0, "method", method)
    return out


def tune_method(spark: SparkSession, dev: list[TSRecord],
                method: str) -> dict:
    """Best grid point by mean Covering on the dev split."""
    spec = METHODS[method]
    if not spec.grid:
        return dict(spec.params)
    (knob, values), = spec.grid.items()
    best_v, best_score = values[0], -1.0
    for v in values:
        sc = evaluate_method(spark, dev, method, {knob: v})
        mean = float(sc["covering"].mean())
        if mean > best_score:
            best_v, best_score = v, mean
    return {**spec.params, knob: best_v}


def summarize_with_oracle(spark: SparkSession,
                          scores: pd.DataFrame) -> pd.DataFrame:
    """Paper Table 3 aggregation (mean/median/std Covering in % per
    method x collection) in Spark SQL, oracle-checked against DuckDB."""
    from repro.oracle import assert_equivalent

    sdf = spark.createDataFrame(
        scores[["method", "collection", "series_id", "covering"]])
    sdf.createOrReplaceTempView("scores")
    sql = """
        SELECT method, collection,
               round(avg(covering) * 100, 4)            AS mean_pct,
               round(median(covering) * 100, 4)         AS median_pct,
               round(stddev_samp(covering) * 100, 4)    AS std_pct
        FROM scores
        GROUP BY method, collection
    """
    agg = spark.sql(sql)
    assert_equivalent(
        agg, sql.replace("stddev_samp", "stddev"),
        scores=scores[["method", "collection", "series_id", "covering"]])
    return (agg.toPandas()
            .sort_values(["collection", "mean_pct"],
                         ascending=[True, False])
            .reset_index(drop=True))


def run_table3(spark: SparkSession, seed: int = 0, tune: bool = True,
               records: list[TSRecord] | None = None,
               methods: list[str] | None = None) -> dict:
    """The full Table 3 experiment; returns scores, summary, ranks and
    the tuned parameters."""
    records = records if records is not None else make_corpus(seed)
    methods = methods or list(METHODS)
    bench = [r for r in records if r.collection == "benchmark"]
    rng = np.random.default_rng(seed)
    dev_ids = set(rng.choice([r.series_id for r in bench],
                             max(1, int(DEV_FRAC * len(bench))),
                             replace=False))
    dev = [r for r in bench if r.series_id in dev_ids]

    tuned: dict[str, dict] = {}
    frames = []
    for method in methods:
        tuned[method] = (tune_method(spark, dev, method)
                         if tune else dict(METHODS[method].params))
        frames.append(evaluate_method(spark, records, method, tuned[method]))
    scores = pd.concat(frames, ignore_index=True)

    summary = summarize_with_oracle(spark, scores)
    pivots, ranks, wins = {}, {}, {}
    for coll in sorted(scores["collection"].unique()):
        sub = scores[scores["collection"] == coll]
        pivot = sub.pivot(index="series_id", columns="method",
                          values="covering")
        pivots[coll] = pivot
        ranks[coll] = mean_ranks(pivot)
        wins[coll] = wins_and_ties(pivot)
    cd = {coll: nemenyi_cd(len(methods), len(p))
          for coll, p in pivots.items()}
    return {"scores": scores, "summary": summary, "ranks": ranks,
            "wins": wins, "nemenyi_cd": cd, "tuned": tuned}
