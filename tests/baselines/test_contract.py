"""Interface contract tests shared by all nine detectors."""
import numpy as np
import pytest

from repro.baselines import DETECTOR_REGISTRY
from repro.baselines.base import make_detector

ALL = sorted(DETECTOR_REGISTRY)

# Cheap, corpus-scale parameters per detector for contract tests.
PARAMS = {
    "class": {"d": 600},
    "floss": {"d": 600, "w": 20},
    "window": {"w": 20},
    "changefinder": {"threshold": 10.0},
    "newma": {"w": 20},
    "bocd": {},
    "ddm": {"drift_level": 3.0},
    "hddm": {"drift_confidence": 1e-6},
    "adwin": {},
}


def _shift_series(n=1600, seed=0):
    rng = np.random.default_rng(seed)
    a = np.sin(2 * np.pi * np.arange(n) / 20) + 0.1 * rng.standard_normal(n)
    b = rng.standard_normal(n) * 0.5 + 3.0
    return np.concatenate([a, b])


def test_registry_has_paper_methods():
    assert set(ALL) == {"class", "floss", "window", "changefinder",
                       "newma", "bocd", "ddm", "hddm", "adwin"}


def test_make_detector_unknown_raises():
    with pytest.raises(ValueError):
        make_detector("nope")


@pytest.mark.parametrize("name", ALL)
def test_contract_positions_valid(name):
    det = make_detector(name, **PARAMS[name])
    series = _shift_series()
    cps = det.run(series)
    assert cps == sorted(cps)
    assert len(set(cps)) == len(cps)
    assert all(0 <= c <= len(series) for c in cps)
    assert det.change_points == cps
    assert det.pos == len(series)


@pytest.mark.parametrize("name", ALL)
def test_update_returns_reported_cp(name):
    det = make_detector(name, **PARAMS[name])
    series = _shift_series(seed=1)
    reported = []
    for x in series:
        cp = det.update(float(x))
        if cp is not None:
            reported.append(cp)
    assert reported == det.change_points


@pytest.mark.parametrize("name", ALL)
def test_deterministic(name):
    series = _shift_series(seed=2)
    a = make_detector(name, **PARAMS[name]).run(series)
    b = make_detector(name, **PARAMS[name]).run(series)
    assert a == b


@pytest.mark.parametrize("name", ALL)
def test_constant_stream_silent(name):
    det = make_detector(name, **PARAMS[name])
    assert det.run(np.ones(1500)) == []


@pytest.mark.parametrize("name", ALL)
def test_chunked_feed_is_lossless(name):
    """``feed`` over uneven chunks returns every CP exactly once, in the
    same order as ``change_points`` and a one-shot ``run``."""
    series = _shift_series(seed=4)
    det = make_detector(name, **PARAMS[name])
    bounds = [0, 1, 7, 450, 601, 1599, 1600, 2333, len(series)]
    fed = [det.feed(series[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    got = [cp for chunk in fed for cp in chunk]
    assert got  # every detector finds the shift at 1600
    assert got == det.change_points
    assert got == make_detector(name, **PARAMS[name]).run(series)
    assert det.pos == len(series)
