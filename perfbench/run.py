"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload stream-d10k --seed 0 --seconds 10 \
        --trace 0

Run from the root of a checkout.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` installs timing wrappers around the kernels and
reports the per-layer metrics.  Report lines go to standard output, and
the last line is ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 2 means the environment cannot run the benchmark (no result
is printed); see README.md in this directory.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
# Driver memory is the one Spark setting the benchmark chooses; every
# other session default comes from jobs/_session.py.
DRIVER_MEM = "2g"


class Context:
    """What a workload needs from the run: its arguments, a private temp
    dir, the Spark session (started on first use) and set-up timing."""

    def __init__(self, args, tmp: str) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tiny = args.tiny
        self.tmp = tmp
        self.surplus_s = 0.0     # repeated set-up work beyond one median
        self.session_s = 0.0
        self._spark = None

    def setup_s(self) -> float:
        """Process start to now, counting repeated set-up steps once."""
        return time.perf_counter() - T0 - self.surplus_s

    def spark(self):
        if self._spark is None:
            sys.path.insert(0, os.path.join(ROOT, "jobs"))
            from _session import get_session

            t0 = time.perf_counter()
            self._spark = get_session("perfbench")
            self.session_s = time.perf_counter() - t0
        return self._spark

    def stop(self) -> None:
        """Stop Spark and wait for the JVM it launched to exit."""
        if self._spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self._spark.stop()
        if gateway is not None:
            gateway.shutdown()
            proc = getattr(gateway, "proc", None)
            if proc is not None:
                proc.stdin.close()
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()


def _isolate(tmp: str) -> None:
    """Keep every file the run writes inside the checkout, and make
    ``repro`` importable here and in Spark's Python workers."""
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    # -XX:-UsePerfData: no hsperfdata file in the system temp dir.
    os.environ["JAVA_TOOL_OPTIONS"] = (
        os.environ.get("JAVA_TOOL_OPTIONS", "")
        + f" -Djava.io.tmpdir={tmp} -XX:-UsePerfData").strip()
    os.environ.setdefault("SPARK_DRIVER_MEM", DRIVER_MEM)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    sys.path.insert(0, SRC)


def _environment(ctx: Context) -> dict:
    import numpy
    import pandas

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "pandas": pandas.__version__}
    try:
        import pyspark
        env["pyspark"] = pyspark.__version__
    except ImportError:
        env["pyspark"] = None
    try:
        env["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        env["git_commit"] = None
    if ctx._spark is not None:
        sc = ctx._spark.sparkContext
        env.update({
            "driver_memory": sc.getConf().get("spark.driver.memory", None),
            "shuffle_partitions":
                ctx._spark.conf.get("spark.sql.shuffle.partitions"),
            "default_parallelism": sc.defaultParallelism,
            "master": sc.master,
        })
    return env


def main() -> int:
    ap = argparse.ArgumentParser(description="ClaSS benchmark, one run.")
    ap.add_argument("--workload", required=True,
                    choices=["stream-d10k", "corpus-batch", "operator-keys"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs and windows, for the self-test")
    args = ap.parse_args()

    tmp = os.path.join(TMP_ROOT, f"run-{os.getpid()}")
    os.makedirs(tmp)
    _isolate(tmp)
    try:
        import repro  # noqa: F401
    except ModuleNotFoundError as e:
        print(f"perfbench: cannot import the program from {SRC}: {e}",
              file=sys.stderr)
        shutil.rmtree(tmp, ignore_errors=True)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    ctx = Context(args, tmp)
    try:
        res = workloads.WORKLOADS[args.workload](ctx)
        env = _environment(ctx)
    except workloads.PreflightError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        ctx.stop()
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = res.layers if ctx.trace else res.e2e
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for name, (value, unit) in {**res.e2e, **res.layers}.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in res.lines:
        print(line)
    print(f"error_rate = {res.failed / max(1, res.attempted):.6g} "
          f"({res.failed} of {res.attempted} series/keys)")
    for failure in res.failures:
        print(f"FAILED {failure}")
    print(f"env {json.dumps(env)}")
    print(json.dumps({
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
