"""The one SparkSession builder.

The ``spark`` fixture in conftest.py, the job entrypoints
(``python jobs/<name>.py`` / ``spark-submit jobs/<name>.py``) and
perfbench all call :func:`get_session`, so the tests run the session the
jobs and the benchmark run.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_session(app: str) -> SparkSession:
    """A local-mode session with the program's defaults.

    Master and driver memory are read when the JVM launches, so they go
    into ``PYSPARK_SUBMIT_ARGS`` (unless already set) before the first
    session starts. Broadcast joins are disabled so joins exercise the
    shuffle path at corpus scale.

    A shuffle has one partition per core (``defaultParallelism``) and
    AQE does not coalesce them, so an operator trigger runs one
    Python-worker task per core. A stateful query keeps the count it
    started with in its checkpoint, so a restarted operator runs at
    its first count. The batch plane sets its own partition count, one
    per series (``corpus_to_spark``).
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (SparkSession.builder.appName(app)
             .config("spark.sql.adaptive.coalescePartitions.enabled", "false")
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             .config("spark.sql.autoBroadcastJoinThreshold", -1)
             .getOrCreate())
    spark.conf.set("spark.sql.shuffle.partitions",
                   spark.sparkContext.defaultParallelism)
    return spark
