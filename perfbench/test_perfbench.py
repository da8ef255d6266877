"""Self-test of the benchmark: every workload on tiny inputs, untraced
and traced, must print every metric BENCHMARK.json names, with its unit,
and pass its correctness check.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(workload: str, trace: int) -> tuple[dict, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPARK_DRIVER_MEM", "PYSPARK_SUBMIT_ARGS")}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_unit(workload, trace):
    result, report = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    # The report names every metric of both kinds with its unit.
    for m in SPEC["end_to_end"] + (SPEC["per_layer"] if trace else []):
        assert f"{m['name']} = " in report, m["name"]


def test_refuses_without_program():
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    bare = os.path.join(ROOT, ".perfbench_tmp", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "stream-d10k", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
