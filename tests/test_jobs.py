"""Every job entrypoint imports and exposes ``main``.

No other test imports ``jobs/*.py``, so a harness name that a job
imports could vanish unnoticed.  Loading a job only imports pyspark;
no SparkSession starts until ``main`` runs.
"""
import importlib.util
from pathlib import Path

import pytest

JOBS = sorted(p for p in (Path(__file__).parents[1] / "jobs").glob("*.py")
              if not p.name.startswith("_"))


def test_jobs_found():
    assert {p.stem for p in JOBS} == {
        "table1_datasets", "table2_complexity", "table3_covering"}


@pytest.mark.parametrize("path", JOBS, ids=lambda p: p.name)
def test_job_has_main(path):
    spec = importlib.util.spec_from_file_location(f"job_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
