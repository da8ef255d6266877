"""ClaSS as a Structured Streaming stateful operator.

The paper ships ClaSS as an Apache Flink *window operator* (Section
4.4); this module is the Spark port (DESIGN.md substitution S2): a
``groupBy(series_id).applyInPandasWithState`` transformation whose state
is the pickled :class:`~repro.core.class_stream.ClaSS` machine.  Each
pandas frame of a micro-batch is sorted by timestamp and passed to
``ClaSS.feed``, the same one-value-at-a-time loop as the standalone run;
every change point it returns is appended to the sink, exactly like the
Flink operator's output stream of CPs.  The state and the sink live in
the query's checkpoint, so the operator restarts where it stopped.

In-order delivery across micro-batches is the caller's contract (as it
is Flink's): :func:`write_stream_chunks` materialises a series as
monotonically time-stamped files so the file source with
``maxFilesPerTrigger=1`` replays them in order.
"""
from __future__ import annotations

import os
import pickle
import time
from collections.abc import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
from pyspark.sql.types import (BinaryType, DoubleType, LongType, StringType,
                               StructField, StructType)

__all__ = ["class_cp_stream", "write_stream_chunks", "run_file_stream"]

INPUT_SCHEMA = StructType([
    StructField("series_id", StringType()),
    StructField("t", LongType()),
    StructField("value", DoubleType()),
])
OUTPUT_SCHEMA = StructType([
    StructField("series_id", StringType()),
    StructField("cp", LongType()),
])
STATE_SCHEMA = StructType([StructField("blob", BinaryType())])


def class_cp_stream(stream_df: DataFrame, **class_config) -> DataFrame:
    """Streaming DataFrame of ``(series_id, cp)`` rows detected by a
    per-key ClaSS operator.  ``class_config`` maps to
    :class:`~repro.core.class_stream.ClaSSConfig` (e.g. ``d=1000``)."""

    def fn(key, pdf_iter: Iterator[pd.DataFrame], state: GroupState):
        from repro.core.class_stream import ClaSS

        if state.exists:
            cls = pickle.loads(state.get[0])
        else:
            cls = ClaSS(**class_config)
        cps: list[int] = []
        for pdf in pdf_iter:
            cps += cls.feed(pdf.sort_values("t")["value"])
        state.update((pickle.dumps(cls),))
        yield pd.DataFrame({"series_id": key[0], "cp": cps})

    return (stream_df.groupBy("series_id")
            .applyInPandasWithState(
                fn, OUTPUT_SCHEMA, STATE_SCHEMA,
                "append", GroupStateTimeout.NoTimeout))


def write_stream_chunks(series_id: str, values: np.ndarray, out_dir: str,
                        n_chunks: int = 8) -> None:
    """Materialise a series as ordered parquet chunk files (one file per
    future micro-batch), with strictly increasing mtimes so the file
    source replays them in arrival order."""
    os.makedirs(out_dir, exist_ok=True)
    values = np.asarray(values, dtype=np.float64)
    bounds = np.linspace(0, len(values), n_chunks + 1, dtype=int)
    base = time.time() - n_chunks * 2
    existing = len([f for f in os.listdir(out_dir) if f.endswith(".parquet")])
    for c in range(n_chunks):
        lo, hi = bounds[c], bounds[c + 1]
        pdf = pd.DataFrame({
            "series_id": series_id,
            "t": np.arange(lo, hi, dtype=np.int64),
            "value": values[lo:hi],
        })
        path = os.path.join(out_dir, f"chunk-{existing + c:05d}.parquet")
        pdf.to_parquet(path, index=False)
        os.utime(path, (base + c, base + c))


def run_file_stream(spark: SparkSession, in_dir: str, checkpoint: str,
                    **class_config) -> pd.DataFrame:
    """Run the ClaSS operator over the chunk files of ``in_dir`` not yet
    seen by ``checkpoint``, one micro-batch per file, and return every
    CP the query has emitted, in all its runs, as a pandas frame.

    The CPs go to a parquet file sink under ``<checkpoint>/cps``, which
    commits each micro-batch exactly once through its ``_spark_metadata``
    log, so a rerun on the same checkpoint resumes the query: it feeds
    only the files added since and adds only their CPs.  The keys'
    state and the shuffle partition count it is spread over are those
    the checkpoint started with."""
    stream = (spark.readStream.schema(INPUT_SCHEMA)
              .option("maxFilesPerTrigger", 1)
              .parquet(in_dir))
    cps = class_cp_stream(stream, **class_config)
    sink = os.path.join(checkpoint, "cps")
    query = (cps.writeStream.format("parquet")
             .option("path", sink)
             .outputMode("append")
             .option("checkpointLocation", checkpoint)
             .trigger(availableNow=True)
             .start())
    query.awaitTermination()
    out = spark.read.schema(OUTPUT_SCHEMA).parquet(sink).toPandas()
    return out.sort_values(["series_id", "cp"]).reset_index(drop=True)
