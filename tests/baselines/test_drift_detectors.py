"""Unit tests for DDM, HDDM, ADWIN and the error-stream adapter."""
import numpy as np
import pytest

from repro.baselines.adwin import ADWIN, MAX_BUCKETS
from repro.baselines.base import ErrorStream
from repro.baselines.ddm import DDM
from repro.baselines.hddm import HDDM


def _mean_shift(n=1500, mag=3.0, seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.standard_normal(n),
                           rng.standard_normal(n) + mag])


# ---------------- ErrorStream ----------------------------------------
def test_error_stream_flags_outliers():
    rng = np.random.default_rng(1)
    es = ErrorStream()
    errs = [es.push(x) for x in rng.standard_normal(500)]
    rate = np.mean(errs[50:])
    assert 0.0 < rate < 0.2  # ~4.6% for gaussian at 2 sigma


def test_error_stream_flags_shift_heavily():
    rng = np.random.default_rng(2)
    es = ErrorStream()
    for x in rng.standard_normal(500):
        es.push(x)
    errs = [es.push(x) for x in rng.standard_normal(100) + 5.0]
    assert np.mean(errs) > 0.8


def test_error_stream_reset():
    es = ErrorStream()
    for x in np.arange(100.0):
        es.push(x)
    es.reset()
    assert es.n == 0 and es.mean == 0.0


# ---------------- DDM ------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ddm_detects_mean_shift(seed):
    det = DDM(drift_level=3.0)
    cps = det.feed(_mean_shift(seed=seed))
    assert any(1500 <= c <= 1700 for c in cps)


def test_ddm_fewer_drifts_with_higher_level():
    series = _mean_shift(mag=2.0, seed=3)
    low = DDM(drift_level=3.0).feed(series)
    high = DDM(drift_level=20.0).feed(series)
    assert len(high) <= len(low)


def test_ddm_silent_on_stationary():
    rng = np.random.default_rng(4)
    assert DDM(drift_level=10.0).feed(rng.standard_normal(3000)) == []


# ---------------- HDDM -----------------------------------------------
@pytest.mark.parametrize("seed", [0, 1])
def test_hddm_detects_mean_shift(seed):
    det = HDDM(drift_confidence=1e-6)
    cps = det.feed(_mean_shift(seed=seed))
    assert any(1500 <= c <= 1800 for c in cps)


def test_hddm_stricter_confidence_fewer_drifts():
    series = _mean_shift(mag=1.5, seed=5)
    loose = HDDM(drift_confidence=1e-3).feed(series)
    strict = HDDM(drift_confidence=1e-30).feed(series)
    assert len(strict) <= len(loose)


def test_hddm_eps_decreases_with_n():
    assert HDDM._eps(100, 1e-6) > HDDM._eps(10_000, 1e-6)


# ---------------- ADWIN ----------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adwin_detects_mean_shift(seed):
    det = ADWIN(delta=0.01)
    cps = det.feed(_mean_shift(seed=seed))
    assert any(1450 <= c <= 1800 for c in cps)


def test_adwin_window_shrinks_after_change():
    det = ADWIN(delta=0.05)
    det.feed(_mean_shift(mag=5.0, seed=6))
    # After cutting, the kept window must be much smaller than the
    # stream: the pre-change half was dropped.
    assert det.n < 2200


def test_adwin_histogram_count_invariant():
    det = ADWIN(delta=0.01)
    rng = np.random.default_rng(7)
    for x in rng.standard_normal(700):
        det._step(float(x))
        total = sum(b.count for row in det.rows for b in row)
        assert total == det.n
        for row_i, row in enumerate(det.rows):
            assert len(row) <= MAX_BUCKETS
            for b in row:
                assert b.count == 2 ** row_i


def test_adwin_bucket_totals_track_sum():
    det = ADWIN(delta=0.01)
    xs = np.linspace(0.2, 0.8, 300)
    det._lo, det._hi = 0.0, 1.0
    for x in xs:
        det._insert(float(x))
    assert np.isclose(det.total, xs.sum())
    total = sum(b.total for row in det.rows for b in row)
    assert np.isclose(total, xs.sum())


def test_adwin_sensitivity_in_delta():
    series = _mean_shift(mag=1.0, seed=8)
    tight = ADWIN(delta=0.002).feed(series)
    loose = ADWIN(delta=0.3).feed(series)
    assert len(tight) <= len(loose) + 1
