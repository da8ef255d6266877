"""Table 1 — technical specification of the evaluation corpus.

The paper's Table 1 lists, per data set: number of series, length
min/median/max and segment-count min/median/max.  We compute the same
statistics for the synthetic corpus (DESIGN.md S1) twice — once in
Spark SQL over the corpus DataFrame (one row per series, with its
length ``n``) and once driver-side from the records — and oracle-check
the Spark aggregation with DuckDB.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.archives import (TSRecord, corpus_to_spark, make_corpus,
                                     table1_stats)

__all__ = ["run_table1"]


def run_table1(spark: SparkSession,
               records: list[TSRecord] | None = None) -> pd.DataFrame:
    """Table 1 statistics via Spark SQL, DuckDB-verified."""
    from repro.oracle import assert_equivalent

    records = records if records is not None else make_corpus()
    df = corpus_to_spark(spark, records)
    df.createOrReplaceTempView("corpus")
    seg_pdf = pd.DataFrame([
        {"series_id": r.series_id, "dataset": r.dataset,
         "n_segments": r.n_segments}
        for r in records
    ])
    spark.createDataFrame(seg_pdf).createOrReplaceTempView("segs")
    sql = """
        SELECT l.dataset,
               count(*)                                    AS n_ts,
               min(l.n)                                    AS len_min,
               cast(median(l.n) AS double)                 AS len_median,
               max(l.n)                                    AS len_max,
               min(s.n_segments)                           AS segs_min,
               cast(median(s.n_segments) AS double)        AS segs_median,
               max(s.n_segments)                           AS segs_max
        FROM corpus l JOIN segs s
          ON l.series_id = s.series_id AND l.dataset = s.dataset
        GROUP BY l.dataset
        ORDER BY l.dataset
    """
    agg = spark.sql(sql)
    assert_equivalent(
        agg, sql,
        corpus=df.select("dataset", "series_id", "n"),
        segs=seg_pdf)
    out = agg.toPandas()
    # Cross-check every column against the driver-side computation, which
    # truncates the medians with int(): the oracle above runs this same
    # SQL in DuckDB, so only this check catches a wrong query.
    ref = table1_stats(records)
    got = out.assign(len_median=out["len_median"].map(int),
                     segs_median=out["segs_median"].map(int))
    pd.testing.assert_frame_equal(got, ref[list(out.columns)],
                                  check_dtype=False)
    return out
