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
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    return (SparkSession.builder.appName(app)
            .config("spark.sql.shuffle.partitions", 64)
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate())
