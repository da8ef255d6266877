"""The three workloads.  Each is a closed loop with one caller: the next
value, job or query is fed as soon as the previous one is accepted, until
``ctx.seconds`` have passed (the last one in flight completes).

Every workload returns a :class:`Result`: end-to-end metrics (untraced
run), per-layer metrics (traced run), extra report lines, and the count
of operations (series or keys) attempted and failed.  An operation fails
on an exception, a missing output, or change points that differ from the
standalone reference.
"""
from __future__ import annotations

import dataclasses
import itertools
import os
import pickle
import resource
import statistics
import threading
import time

import numpy as np

import inputs
from tracing import Tracer

clock = time.perf_counter

# corpus-batch deals the 79 series into 20 jobs of ~24.5k points each.
# A job that small runs as one Spark task at this commit (about 12 s),
# so a 10 s run holds one or two jobs; the full corpus would not fit.
BATCH_JOBS = 20
# operator-keys: each query streams every key in 2 chunk files, i.e. two
# triggers: the state is written after the first and read in the second.
OPERATOR_CHUNKS = 2
STATE_REPS = 5        # pickle round trips per state measurement


class PreflightError(RuntimeError):
    """The environment cannot run the workload; no result is printed."""


@dataclasses.dataclass
class Result:
    e2e: dict = dataclasses.field(default_factory=dict)
    layers: dict = dataclasses.field(default_factory=dict)
    lines: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)

    def check(self, what: str, got, want) -> None:
        """Count one operation; a mismatch is a failure, never dropped."""
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.failures.append(f"{what}: got {got} want {want}")


def _median(xs) -> float:
    return float(statistics.median(xs))


def _rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: this process only, not the JVM or
    # the Python workers Spark forks.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _covering_pct(pairs) -> float:
    """Mean Covering (%) over ``(true CPs, found CPs, n)`` triples."""
    from repro.metrics.covering import covering

    return 100 * float(np.mean([covering(t, p, n) for t, p, n in pairs]))


def _repeat_setup(ctx, fn, reps: int = 3, part_of_setup: bool = True):
    """Run a set-up step ``reps`` times; return its last value and the
    median duration.  ``setup_s`` counts the step once, at its median."""
    times = []
    for _ in range(reps):
        t0 = clock()
        out = fn()
        times.append(clock() - t0)
    ctx.surplus_s += sum(times) - (_median(times) if part_of_setup else 0)
    return out, _median(times)


# ----------------------------------------------------------------------
# Kernel layers, traced from the benchmark process
# ----------------------------------------------------------------------
def _feed(cls, values) -> list[int]:
    returned = []
    for v in values:
        got = cls.update(v)
        if got is not None:
            returned.append(got)
    return returned


def _replay(series: list, d: int, budget_s: float, block: int = 1_000):
    """Run ``ClaSS`` over the leading series twice, untraced and traced,
    alternating blocks of ``block`` points between the two detectors so
    that a drift in machine speed hits both alike.  Stops after the
    series during which both passes together reach ``budget_s``.
    Returns the tracer, the points per pass, both pass times and the
    traced detectors with the CPs their ``update`` returned."""
    from repro.core.class_stream import ClaSS, ClaSSConfig

    tracer = Tracer()
    plain_s = traced_s = 0.0
    points, detectors = 0, []
    for values in series:
        vals = np.asarray(values, dtype=np.float64).tolist()
        plain, traced = ClaSS(ClaSSConfig(d=d)), ClaSS(ClaSSConfig(d=d))
        returned: list[int] = []
        for lo in range(0, len(vals), block):
            chunk = vals[lo:lo + block]
            t0 = clock()
            _feed(plain, chunk)
            plain_s += clock() - t0
            with tracer.installed():
                t0 = clock()
                returned += _feed(traced, chunk)
                traced_s += clock() - t0
        points += len(vals)
        detectors.append((traced, returned))
        if plain_s + traced_s >= budget_s:
            break
    return tracer, points, plain_s, traced_s, detectors


def _state_metrics(cls) -> dict:
    blob = pickle.dumps(cls)
    dumps, loads = [], []
    for _ in range(STATE_REPS):
        t0 = clock()
        pickle.dumps(cls)
        dumps.append(clock() - t0)
        t0 = clock()
        pickle.loads(blob)
        loads.append(clock() - t0)
    return {
        "class.state_bytes": (len(blob), "bytes"),
        "class.state_dumps_us": (1e6 * _median(dumps), "us"),
        "class.state_loads_us": (1e6 * _median(loads), "us"),
    }


def _add_trace(res: Result, tracer: Tracer, points: int, plain_s: float,
               traced_s: float, detectors) -> None:
    """Per-layer metrics of a traced pass over ``points`` points;
    ``plain_s`` and ``traced_s`` time the same work untraced and traced,
    and the spans' self times should account for ``traced_s``."""
    tests = tracer.calls["significance.test"]
    found = sum(len(cls.change_points) for cls, _ in detectors)
    unreturned = sum(len(cls.change_points) - len(ret)
                     for cls, ret in detectors)
    accounted = sum(tracer.self_s.values())
    layers = {
        "knn.update_us": (tracer.per_call_us("knn.update"), "us"),
        "knn.calls": (tracer.calls["knn.update"], "count"),
        "scoring.cross_val_us": (tracer.per_call_us("scoring.cross_val"),
                                 "us"),
        "scoring.split_counts_us": (
            tracer.per_call_us("scoring.split_counts"), "us"),
        "scoring.calls_per_point": (
            tracer.calls["scoring.cross_val"] / points, "count"),
        "significance.test_us": (tracer.per_call_us("significance.test"),
                                 "us"),
        "significance.tests": (tests, "count"),
        "significance.accept_ratio": (found / tests if tests else 0.0,
                                      "ratio"),
        "suss.learn_width_ms": (
            1e-3 * tracer.per_call_us("suss.learn_width"), "ms"),
        "class.warmup_replay_s": (
            tracer.warmup_replay_s / max(1, tracer.warmups), "s"),
        "class.update_self_us": (tracer.per_call_us("class.update"), "us"),
        "class.update_unreturned_cps": (unreturned, "count"),
        "trace_overhead_pct": (100 * (traced_s / plain_s - 1), "%"),
        "trace.accounted_pct": (100 * accounted / traced_s, "%"),
    }
    layers.update(_state_metrics(detectors[-1][0]))
    res.layers = layers
    res.lines.append(f"trace: {points} points per pass, untraced "
                     f"{plain_s:.3f} s, traced {traced_s:.3f} s")


# ----------------------------------------------------------------------
# stream-d10k
# ----------------------------------------------------------------------
def _timed_feed(cls, vals, first: int, deadline: float, lat: list,
                emitted: list, returned: list) -> int:
    """Feed ``vals[first:]`` one at a time until ``deadline``, recording
    each call's latency, each CP as it enters ``change_points`` (with the
    number of points fed) and each CP ``update`` returned.  Returns the
    number of points fed in total."""
    cps = cls.change_points
    i = first
    for v in vals[first:]:
        t0 = clock()
        got = cls.update(v)
        t1 = clock()
        i += 1
        lat.append(t1 - t0)
        if got is not None:
            returned.append(got)
        if len(cps) > len(emitted):
            emitted.extend([i, int(c)] for c in cps[len(emitted):])
        if t1 >= deadline:
            break
    return i


def stream_d10k(ctx) -> Result:
    """One standalone ``ClaSS(d=10k)`` fed one value at a time.  The
    first d values (buffering, SuSS and the replay stall) are set-up; the
    timed phase is the steady state after them."""
    from repro.core.class_stream import ClaSS, ClaSSConfig

    d, n_total = (600, 4_000) if ctx.tiny else (inputs.STREAM_D,
                                                 inputs.STREAM_N)
    (j, values, truth), _ = _repeat_setup(
        ctx, lambda: inputs.stream_input(ctx.seed, n_total))
    if ctx.tiny:
        ref, _ = inputs.standalone_emissions(values, d)
    else:
        ref = inputs.load_refs("stream_d10k")["streams"][str(j)]
    vals = values.tolist()

    cls = ClaSS(ClaSSConfig(d=d))
    warm_lat, emitted, returned = [], [], []
    _timed_feed(cls, vals[:d], 0, float("inf"), warm_lat, emitted, returned)
    setup_s = ctx.setup_s()
    lat: list[float] = []
    t_start = clock()
    n = _timed_feed(cls, vals, d, t_start + ctx.seconds, lat, emitted,
                    returned)
    elapsed = clock() - t_start

    res = Result()
    res.check(f"stream {j} ({n} points)", emitted,
              [e for e in ref if e[0] <= n])
    cover = _covering_pct([([c for c in truth if c < n],
                            cls.change_points, n)])
    steady = np.asarray(lat) * 1e6
    p50 = float(np.percentile(steady, 50))
    res.e2e = {
        "setup_s": (setup_s, "s"),
        "pts_per_s": (len(lat) / elapsed, "pts/s"),
        "latency_p50_ms": (p50 / 1e3, "ms"),
        "rss_peak_mb": (_rss_mb(), "MB"),
    }
    res.lines += [
        f"stream: pool stream {j}, d={d}, {len(lat)} points after the "
        f"warm-up in {elapsed:.3f} s",
        f"update_p50_us = {p50:.2f} us (n={steady.size})",
        f"update_p99_us = {np.percentile(steady, 99):.2f} us "
        f"(n={steady.size}, {int(steady.size * 0.01)} beyond)",
        f"warmup_stall_s = {warm_lat[-1]:.4f} s",
        f"run_pts_per_s = {n / (sum(warm_lat) + elapsed):.2f} pts/s "
        "(all points over all update time, warm-up included)",
        f"covering_pct = {cover:.3f} %",
        f"class.update_unreturned_cps = "
        f"{len(cls.change_points) - len(returned)} count "
        "(CPs in change_points that update() never returned)",
    ]
    if ctx.trace:
        _add_trace(res, *_replay([vals[:n]], d, float("inf")))
    return res


# ----------------------------------------------------------------------
# corpus-batch
# ----------------------------------------------------------------------
def _prefix(rec, n: int):
    """The first ``n`` points of a series, with its true CPs."""
    return dataclasses.replace(
        rec, values=rec.values[:n],
        change_points=[c for c in rec.change_points if c < n])


def _tiny_records(records, dataset: str, k: int, n: int):
    """The ``k`` shortest series of ``dataset``, cut to ``n`` points."""
    picked = sorted((r for r in records if r.dataset == dataset),
                    key=lambda r: (r.n, r.series_id))[:k]
    return [_prefix(r, n) for r in picked]


def _series_refs(ctx, records, d: int) -> dict[str, list[list[int]]]:
    """``[points fed, CP]`` references by series id."""
    if ctx.tiny:
        return {r.series_id: inputs.standalone_emissions(r.values, d)[0]
                for r in records}
    return inputs.load_refs("corpus_d1000")["series"]


def _spark_warm_up(spark, rec, d: int) -> float:
    """Run one tiny batch-plane job over the first 50 points of ``rec``
    (JVM, Python workers, Arrow); return its duration.  A worker that
    cannot import ``repro`` stops the benchmark with that message instead
    of failing every series."""
    from repro.datasets.archives import corpus_to_spark
    from repro.streaming.batch_apply import segment_corpus_spark

    t0 = clock()
    try:
        segment_corpus_spark(corpus_to_spark(spark, [_prefix(rec, 50)]),
                             "class", {"d": d})
    except Exception as e:  # Py4J/Spark wrap the worker's traceback
        if "No module named 'repro'" in str(e):
            raise PreflightError(
                "Spark's Python workers cannot import 'repro' "
                "(ModuleNotFoundError: No module named 'repro'); "
                "PYTHONPATH must name the checkout's src/") from e
        raise
    return clock() - t0


def corpus_batch(ctx) -> Result:
    """ClaSS at d=1k over the corpus through ``segment_corpus_spark``."""
    from repro.datasets.archives import corpus_to_spark
    from repro.streaming.batch_apply import segment_corpus_spark

    d = 300 if ctx.tiny else inputs.CORPUS_D
    spark = ctx.spark()

    def prepare():
        records = inputs.corpus()
        if ctx.tiny:
            records = _tiny_records(records, "tssb-lite", 4, 1_500)
        return records, inputs.batch_jobs(records, ctx.seed, BATCH_JOBS)

    (records, jobs), _ = _repeat_setup(ctx, prepare)
    make_corpus_s = _repeat_setup(ctx, inputs.corpus,
                                  part_of_setup=False)[1]
    refs = _series_refs(ctx, records, d)
    warm_s = _spark_warm_up(spark, records[0], d)
    setup_s = ctx.setup_s()

    res = Result()
    walls, done = [], []
    t_start = clock()
    for job in itertools.cycle(jobs):
        t0 = clock()
        try:
            out = segment_corpus_spark(corpus_to_spark(spark, job), "class",
                                       {"d": d})
        except Exception as e:  # a failed job fails each of its series
            out = repr(e)
        walls.append(clock() - t0)
        done.append((job, out))
        if clock() - t_start >= ctx.seconds:
            break
    elapsed = clock() - t_start
    rss = _rss_mb()

    pts, series_s, cover, processed = 0, [], [], []
    for job, out in done:
        by_sid = {} if isinstance(out, str) else dict(
            list(out.groupby("series_id")))
        for rec in job:
            want = inputs.prefix_cps(refs[rec.series_id], rec.n)
            g = by_sid.get(rec.series_id)
            if g is None:
                res.check(rec.series_id, out if isinstance(out, str)
                          else "missing", want)
                continue
            cps = sorted(int(c) for c in g["cp"] if c >= 0)
            res.check(rec.series_id, (int(g["n"].iloc[0]), cps),
                      (rec.n, want))
            pts += rec.n
            series_s.append(float(g["elapsed"].iloc[0]))
            cover.append((rec.change_points, cps, rec.n))
            processed.append(rec.values)
    compute_s = sum(series_s)
    res.e2e = {
        "setup_s": (setup_s, "s"),
        "pts_per_s": (pts / elapsed, "pts/s"),
        "latency_p50_ms": (1e3 * _median(walls), "ms"),
        "rss_peak_mb": (rss, "MB"),
    }
    cores = spark.sparkContext.defaultParallelism
    res.lines += [
        f"batch: {len(done)} jobs, {len(series_s)} series, {pts} points "
        f"in {elapsed:.3f} s, d={d}",
        f"wall_s = {_median(walls):.3f} s (median of {len(walls)} jobs: "
        f"{', '.join(f'{w:.3f}' for w in walls)})",
        f"series_p50_s = {_median(series_s):.4f} s (n={len(series_s)})",
        f"covering_pct = {_covering_pct(cover):.3f} %",
        f"batch.compute_s = {compute_s:.3f} s",
        f"batch.busy_share = {compute_s / (sum(walls) * cores):.4f} ratio "
        f"({cores} cores)",
        f"batch.series_max_s = {max(series_s):.4f} s",
        f"datasets.make_corpus_s = {make_corpus_s:.4f} s",
        f"spark.session_s = {ctx.session_s:.3f} s",
        f"spark.warmup_job_s = {warm_s:.3f} s",
    ]
    if ctx.trace:
        _add_trace(res, *_replay(processed, d, ctx.seconds))
    return res


# ----------------------------------------------------------------------
# operator-keys
# ----------------------------------------------------------------------
def _write_chunks(keys, seed: int, n_chunks: int, out_dir: str) -> None:
    """Ordered parquet chunk files, each carrying every key, so each
    trigger (one file) feeds all keys.  Cut points are seeded per key;
    mtimes increase with the chunk index, as in ``write_stream_chunks``."""
    import pandas as pd

    os.makedirs(out_dir)
    rng = np.random.default_rng(seed)
    bounds = {r.series_id: inputs.chunk_bounds(r.n, n_chunks, rng)
              for r in keys}
    order = [keys[i] for i in rng.permutation(len(keys))]
    base = time.time() - 2 * n_chunks
    for c in range(n_chunks):
        frames = []
        for r in order:
            lo, hi = bounds[r.series_id][c], bounds[r.series_id][c + 1]
            frames.append(pd.DataFrame({
                "series_id": r.series_id,
                "t": np.arange(lo, hi, dtype=np.int64),
                "value": r.values[lo:hi]}))
        path = os.path.join(out_dir, f"chunk-{c:05d}.parquet")
        pd.concat(frames, ignore_index=True).to_parquet(path, index=False)
        os.utime(path, (base + c, base + c))


def _progress_listener():
    from pyspark.sql.streaming import StreamingQueryListener

    class ProgressLog(StreamingQueryListener):
        """Spark's own per-trigger progress, per query id."""

        def __init__(self) -> None:
            self.started: list[str] = []
            self.progress: dict[str, list[dict]] = {}
            self._ended: set[str] = set()
            self._cv = threading.Condition()

        def onQueryStarted(self, event) -> None:
            with self._cv:
                self.started.append(str(event.id))
                self._cv.notify_all()

        def onQueryProgress(self, event) -> None:
            p = event.progress
            ops = p.stateOperators
            rec = {"rows": p.numInputRows, **p.durationMs,
                   "state_rows": ops[0].numRowsTotal if ops else 0,
                   "state_mem": ops[0].memoryUsedBytes if ops else 0}
            with self._cv:
                self.progress.setdefault(str(p.id), []).append(rec)

        def onQueryIdle(self, event) -> None:
            pass

        def onQueryTerminated(self, event) -> None:
            with self._cv:
                self._ended.add(str(event.id))
                self._cv.notify_all()

        def query(self, k: int, timeout: float = 60.0) -> list[dict]:
            """Progress of the k-th query started, once it has ended
            (events arrive asynchronously, in order)."""
            def ended() -> bool:
                return (len(self.started) > k
                        and self.started[k] in self._ended)

            with self._cv:
                if not self._cv.wait_for(ended, timeout):
                    raise RuntimeError(f"no end event for query {k}")
                return self.progress.get(self.started[k], [])

    return ProgressLog()


def operator_keys(ctx) -> Result:
    """``run_file_stream`` with the first points of every series of one
    dataset as keys; every trigger (one chunk file) carries every key."""
    from repro.streaming.operator import run_file_stream

    d, n_points = (300, 1_500) if ctx.tiny else (inputs.CORPUS_D,
                                                  inputs.OPERATOR_POINTS)
    spark = ctx.spark()
    n_prep = itertools.count()

    def prepare():
        records = inputs.corpus()
        keys = _tiny_records(records, inputs.OPERATOR_DATASET, 3,
                             n_points) if ctx.tiny else [
            _prefix(r, n_points) for r in records
            if r.dataset == inputs.OPERATOR_DATASET]
        in_dir = os.path.join(ctx.tmp, f"in-{next(n_prep)}")
        _write_chunks(keys, ctx.seed, OPERATOR_CHUNKS, in_dir)
        return keys, in_dir

    (keys, in_dir), _ = _repeat_setup(ctx, prepare)
    make_corpus_s = _repeat_setup(ctx, inputs.corpus,
                                  part_of_setup=False)[1]
    refs = _series_refs(ctx, keys, d)
    listener = _progress_listener()
    spark.streams.addListener(listener)
    # A warm-up query would cost a whole trigger (9-14 s at 64 shuffle
    # partitions); the tiny batch job warms the JVM and the workers, and
    # the streaming plan's first-query cost falls in the first trigger.
    warm_s = _spark_warm_up(spark, keys[0], d)
    setup_s = ctx.setup_s()

    res = Result()
    done, triggers = [], []
    t_start = clock()
    for q in itertools.count():
        try:
            out = run_file_stream(spark, in_dir,
                                  os.path.join(ctx.tmp, f"ckpt-{q}"), d=d)
            triggers += [p for p in listener.query(q) if p["rows"] > 0]
        except Exception as e:  # a failed query fails each of its keys
            out = repr(e)
        done.append(out)
        if clock() - t_start >= ctx.seconds:
            break
    elapsed = clock() - t_start
    rss = _rss_mb()
    spark.streams.removeListener(listener)

    pts, cover, replayed = 0, [], []
    for q, out in enumerate(done):
        by_key = {} if isinstance(out, str) else {
            k: sorted(int(c) for c in g["cp"])
            for k, g in out.groupby("series_id")}
        for r in keys:
            want = inputs.prefix_cps(refs[r.series_id], r.n)
            if isinstance(out, str):
                res.check(f"query {q} key {r.series_id}", out, want)
                continue
            cps = by_key.get(r.series_id, [])
            res.check(f"query {q} key {r.series_id}", cps, want)
            pts += r.n
            cover.append((r.change_points, cps, r.n))
            replayed.append(r.values)
    trig_ms = [p["triggerExecution"] for p in triggers]
    res.e2e = {
        "setup_s": (setup_s, "s"),
        "pts_per_s": (pts / elapsed, "pts/s"),
        "latency_p50_ms": (_median(trig_ms), "ms"),
        "rss_peak_mb": (rss, "MB"),
    }

    def med(key: str) -> float:
        return _median([p.get(key, 0) for p in triggers])

    res.lines += [
        f"operator: {len(done)} queries x {len(keys)} keys x {n_points} "
        f"points in {OPERATOR_CHUNKS} chunks, {pts} points in "
        f"{elapsed:.3f} s, d={d}",
        f"trigger_p50_ms = {_median(trig_ms):.1f} ms (n={len(trig_ms)})",
        f"covering_pct = {_covering_pct(cover):.3f} %",
        f"operator.triggers = {len(triggers)} count",
        f"operator.addBatch_ms = {med('addBatch'):.1f} ms",
        f"operator.queryPlanning_ms = {med('queryPlanning'):.1f} ms",
        f"operator.walCommit_ms = {med('walCommit'):.1f} ms",
        f"operator.commitOffsets_ms = {med('commitOffsets'):.1f} ms",
        f"operator.state_rows = {max(p['state_rows'] for p in triggers)} "
        "count",
        f"operator.state_mem_bytes = "
        f"{max(p['state_mem'] for p in triggers)} bytes",
        f"datasets.make_corpus_s = {make_corpus_s:.4f} s",
        f"spark.session_s = {ctx.session_s:.3f} s",
        f"spark.warmup_job_s = {warm_s:.3f} s",
    ]
    if ctx.trace:
        _add_trace(res, *_replay(replayed, d, ctx.seconds))
    return res


WORKLOADS = {
    "stream-d10k": stream_d10k,
    "corpus-batch": corpus_batch,
    "operator-keys": operator_keys,
}
