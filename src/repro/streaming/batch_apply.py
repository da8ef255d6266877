"""Batch-parallel streaming simulation over the corpus.

The paper evaluates every method by "processing one data point at a
time" over 592 independent series.  Here each series is one row of the
corpus DataFrame (:func:`repro.datasets.archives.corpus_to_spark`) and
one Spark group: ``applyInPandas`` ships the row's ``values`` array to a
worker, which passes it to the detector's ``feed`` (one value at a time,
exactly like the standalone run) and returns the detected change points
plus wall-clock timing — giving the per-series runtime and throughput
measurements of paper Section 4.4 for free.

The grouping keys are ``(slot, series_id)``.  ``slot`` is the column the
corpus frame is placed by (``repartitionById``), so the grouping keeps
that placement and adds no shuffle: each series runs alone in its own
task, and the longest series' task starts first.

Detectors are rebuilt on the worker from a ``(name, params)`` pair via
:func:`repro.methods.make_detector`; per-series parameter
overrides (e.g. the annotated subsequence width the paper grants FLOSS,
Window and NEWMA) travel in a small broadcastable dict.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

__all__ = ["segment_corpus_spark", "RESULT_SCHEMA"]

# cp == -1 is a per-series sentinel row that carries timing even when a
# series produced no change points.
RESULT_SCHEMA = ("collection string, dataset string, series_id string, "
                 "cp long, n long, elapsed double")


def segment_corpus_spark(
    corpus_df: DataFrame,
    detector: str,
    params: dict,
    per_series_params: dict[str, dict] | None = None,
) -> pd.DataFrame:
    """Run ``detector`` over every series of the corpus DataFrame in
    parallel; returns a pandas frame of CP rows plus one ``cp = -1``
    timing sentinel per series."""
    per_series = per_series_params or {}

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        from repro.methods import make_detector

        row = pdf.iloc[0]
        sid = row["series_id"]
        vals = np.asarray(row["values"], dtype=np.float64)
        t0 = time.perf_counter()
        det = make_detector(detector, **{**params, **per_series.get(sid, {})})
        cps = det.feed(vals)
        elapsed = time.perf_counter() - t0
        return pd.DataFrame({
            "collection": row["collection"],
            "dataset": row["dataset"],
            "series_id": sid,
            "cp": [-1, *cps],
            "n": len(vals),
            "elapsed": elapsed,
        })

    out = corpus_df.groupBy("slot", "series_id").applyInPandas(
        fn, RESULT_SCHEMA)
    return out.toPandas()
