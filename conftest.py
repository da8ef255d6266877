import os
import sys


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > half of /proc/meminfo's MemTotal, clamped to [2g, 8g] (the
    rule of the tier-1 command in ROADMAP.md; 2g if MemTotal cannot be
    read). spark.driver.memory is read at JVM launch, not from
    SparkConf; ``get_session`` puts SPARK_DRIVER_MEM into
    PYSPARK_SUBMIT_ARGS before the first session starts.

    The cgroup read is best-effort: the sandbox runs under gVisor, whose
    sysfs emulation may not pass the host limit through. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f
                       if line.startswith("MemTotal:"))
        gib, src = kib // (1 << 21), f"meminfo:MemTotal={kib}kB"
    except (OSError, StopIteration, ValueError, IndexError):
        gib, src = 2, "meminfo:unreadable"
    os.environ["_SPARK_DRIVER_MEM_SRC"] = src
    return f"{min(8, max(2, gib))}g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "jobs"))

import pytest  # noqa: E402
from _session import get_session  # noqa: E402


@pytest.fixture(scope="session")
def spark():
    """One SparkSession for the whole test session: the program's own,
    from ``jobs/_session.get_session``."""
    s = get_session("repro")
    # One line in test_output.txt that tells the driver whether the
    # cgroup derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
