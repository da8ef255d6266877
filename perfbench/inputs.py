"""Seeded inputs of the three workloads and their reference change points.

Every input is drawn from a fixed pool whose change points were computed
once by a standalone ``ClaSS.run`` (``make_refs.py``) and committed under
``refs/``.  The ``--seed`` picks from the pool and orders it, so every
seed gets an exact reference without re-running the detector:

* ``stream-d10k`` plays ``_test_stream(STREAM_N, seed % STREAM_POOL)``.
* ``corpus-batch`` and ``operator-keys`` use the 79 series of
  ``make_corpus(CORPUS_SEED)``.  The seed deals them into jobs (batch),
  or orders the keys and cuts each into micro-batch chunks at seeded
  positions (operator).  Chunk boundaries must not change any change
  point, which is exactly what the operator check asserts.

A reference lists ``[points fed, CP]`` pairs, so the reference of a
prefix of a series is the pairs with ``points fed <= len(prefix)``.
"""
from __future__ import annotations

import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")

STREAM_D = 10_000
STREAM_N = 60_000
STREAM_POOL = 8

CORPUS_SEED = 0
CORPUS_D = 1_000
OPERATOR_DATASET = "tssb-lite"
# Every key feeds the same number of points (the shortest tssb-lite
# length), so a query's work does not depend on which keys the seed picks.
OPERATOR_POINTS = 2_000


def stream_input(seed: int, n: int = STREAM_N):
    """``(pool index, values, true CPs)`` of the stream-d10k input."""
    from repro.harness.throughput import _test_stream

    j = seed % STREAM_POOL
    values, cps = _test_stream(n, j)
    return j, values, cps


def corpus():
    """The reference corpus shared by the two Spark workloads."""
    from repro.datasets.archives import make_corpus

    return make_corpus(CORPUS_SEED)


def batch_jobs(records, seed: int, n_jobs: int) -> list[list]:
    """Deal the corpus into ``n_jobs`` jobs of near-equal total length.

    Longest-first greedy packing on seeded, +-20% perturbed lengths: the
    seed changes which series share a job, while every job's total
    length stays within a few percent of the mean, so a job's wall time
    depends little on the seed.  The job order is seeded too.
    """
    rng = np.random.default_rng(seed)
    key = np.array([r.n for r in records]) * rng.uniform(0.8, 1.2,
                                                         len(records))
    totals = np.zeros(n_jobs)
    jobs: list[list] = [[] for _ in range(n_jobs)]
    for i in np.argsort(-key, kind="stable"):
        j = int(np.argmin(totals))
        totals[j] += records[i].n
        jobs[j].append(records[i])
    return [jobs[j] for j in rng.permutation(n_jobs)]


def chunk_bounds(n: int, n_chunks: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded cut points of one key: ``n_chunks`` non-empty chunks whose
    sizes vary within +-25% of an even split."""
    even = np.linspace(0, n, n_chunks + 1)
    step = n / n_chunks
    jitter = rng.uniform(-0.25, 0.25, n_chunks - 1) * step
    inner = np.round(even[1:-1] + jitter).astype(int)
    return np.concatenate([[0], inner, [n]]).astype(int)


def standalone_emissions(values, d: int):
    """Standalone run of ``ClaSS(ClaSSConfig(d=d))`` over ``values``.

    Returns ``[[points fed when the CP appeared, CP], ...]`` for every
    entry of ``change_points`` (the reference), and the detector.
    """
    from repro.core.class_stream import ClaSS, ClaSSConfig

    cls = ClaSS(ClaSSConfig(d=d))
    emitted: list[list[int]] = []
    for i, v in enumerate(np.asarray(values, dtype=np.float64).tolist()):
        cls.update(v)
        while len(emitted) < len(cls.change_points):
            emitted.append([i + 1, int(cls.change_points[len(emitted)])])
    return emitted, cls


def prefix_cps(ref: list[list[int]], n: int) -> list[int]:
    """Reference CPs of the first ``n`` points of a series."""
    return [cp for fed, cp in ref if fed <= n]


def load_refs(name: str) -> dict:
    with open(os.path.join(REFS, f"{name}.json")) as f:
        return json.load(f)
