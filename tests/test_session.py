"""The session's one partition rule: a shuffle has one partition per
core and AQE does not coalesce them.  The batch plane's placement rule:
each series alone in its own task, longest first.  And the driver heap
the test session asks for when nothing sets it."""
import builtins
import os

from pyspark.sql.functions import spark_partition_id

import conftest
from repro.datasets.archives import (CollectionSpec, corpus_to_spark,
                                     make_corpus)
from repro.methods import make_detector
from repro.streaming.batch_apply import segment_corpus_spark


def test_shuffle_partitions_follow_the_cores(spark):
    assert (int(spark.conf.get("spark.sql.shuffle.partitions"))
            == spark.sparkContext.defaultParallelism)
    assert spark.conf.get(
        "spark.sql.adaptive.coalescePartitions.enabled") == "false"


def test_batch_plane_runs_one_task_per_series_longest_first(spark,
                                                            monkeypatch):
    cores = spark.sparkContext.defaultParallelism
    spec = CollectionSpec("spread", "benchmark", 2 * cores + 1, (1500, 2000),
                          (2, 2), (0.05, 0.1))
    corpus = make_corpus(seed=5, collections=(spec,))
    df = corpus_to_spark(spark, corpus)

    # The i-th longest series sits alone in partition i.
    pid = dict(df.select("series_id", spark_partition_id()).collect())
    longest_first = sorted(corpus, key=lambda r: -r.n)
    assert ([pid[r.series_id] for r in longest_first]
            == list(range(len(corpus))))

    plans = []
    to_pandas = type(df).toPandas

    def recording_to_pandas(self):
        out = to_pandas(self)
        plans.append(self._jdf.queryExecution().executedPlan().toString())
        return out

    monkeypatch.setattr(type(df), "toPandas", recording_to_pandas)
    sc = spark.sparkContext
    sc.setJobGroup("batch-plane-tasks", "segment_corpus_spark")
    try:
        res = segment_corpus_spark(df, "class", {"d": 300})
    finally:
        sc.setJobGroup(None, None)
    tracker = sc.statusTracker()
    last_job = max(tracker.getJobIdsForGroup("batch-plane-tasks"))
    result_stage = max(tracker.getJobInfo(last_job).stageIds)  # toPandas
    assert tracker.getStageInfo(result_stage).numTasks == len(corpus)
    # Grouping by (slot, series_id) keeps the slot placement: no second
    # exchange hashes the series back onto shared partitions.
    plan = plans[-1].lower()
    assert "shufflepartitionidpassthrough" in plan
    assert "hashpartitioning" not in plan

    assert res["cp"].max() > 0  # the series hold detectable CPs
    for rec in corpus:
        sub = res[(res.series_id == rec.series_id) & (res.cp >= 0)]
        got = sorted(int(c) for c in sub["cp"])
        assert got == make_detector("class", d=300).feed(rec.values), \
            rec.series_id


def test_driver_mem_without_env_or_cgroup_follows_meminfo(monkeypatch):
    """With SPARK_DRIVER_MEM unset and no cgroup limit readable, the
    driver heap is half of MemTotal within [2g, 8g], never more than the
    machine has."""
    real_open = builtins.open

    def no_cgroup(path, *args, **kwargs):
        if str(path).startswith("/sys/fs/cgroup"):
            raise OSError(f"unreadable: {path}")
        return real_open(path, *args, **kwargs)

    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.setenv("_SPARK_DRIVER_MEM_SRC", "")
    monkeypatch.setattr(builtins, "open", no_cgroup)
    mem = conftest._driver_mem()
    assert mem.endswith("g") and 2 <= int(mem[:-1]) <= 8
    assert os.environ["_SPARK_DRIVER_MEM_SRC"].startswith("meminfo:")
