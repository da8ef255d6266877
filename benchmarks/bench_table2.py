"""Benchmark: Table 2 — per-point update cost of every detector.

Each benchmark streams a fixed number of points through a pre-warmed
detector; pytest-benchmark's per-round time divided by ``N_POINTS`` is
the per-update cost whose growth class Table 2 reports.
"""
import numpy as np
import pytest

from repro.baselines.base import make_detector

N_POINTS = 300
D = 1000

PARAMS = {
    "class": {"d": D, "w": 20},
    "floss": {"d": D, "w": 20},
    "window": {"w": 20},
    "changefinder": {},
    "newma": {"w": 20},
    "bocd": {},
    "ddm": {},
    "hddm": {},
    "adwin": {},
}


def _stream(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return np.sin(2 * np.pi * t / 29) + 0.2 * rng.standard_normal(n)


@pytest.mark.parametrize("method", sorted(PARAMS))
def test_bench_update_cost(benchmark, method):
    warm = _stream(D + N_POINTS)
    det = make_detector(method, **PARAMS[method])
    det.feed(warm[:D])
    chunk = warm[D:]

    benchmark.pedantic(det.feed, args=(chunk,), rounds=3, iterations=1)
