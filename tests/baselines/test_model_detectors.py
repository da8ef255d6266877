"""Unit tests for BOCD, ChangeFinder, Window and NEWMA."""
import numpy as np
import pytest

from repro.baselines import bocd, changefinder
from repro.baselines.bocd import BOCD, _gammaln
from repro.baselines.changefinder import SDAR, ChangeFinder, _levinson_durbin
from repro.baselines.newma import NEWMA
from repro.baselines.window import WindowSegmenter, ar_cost


def _mean_shift(n=1200, mag=4.0, seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.standard_normal(n),
                           rng.standard_normal(n) + mag])


# ---------------- BOCD -----------------------------------------------
def test_gammaln_matches_math_lgamma():
    import math
    xs = np.array([0.5, 1.0, 1.5, 2.0, 7.3, 50.0, 500.5])
    got = _gammaln(xs)
    exp = np.array([math.lgamma(v) for v in xs])
    np.testing.assert_allclose(got, exp, rtol=1e-10, atol=1e-12)


def test_bocd_posterior_normalised():
    det = BOCD()
    rng = np.random.default_rng(1)
    for x in rng.standard_normal(300):
        det._step(float(x))
        assert np.isclose(det.r.sum(), 1.0)
        assert len(det.r) == len(det.runs) == len(det.mu)


def test_bocd_map_run_grows_on_stationary():
    det = BOCD()
    rng = np.random.default_rng(2)
    for x in rng.standard_normal(400):
        det.update(float(x))
    assert det._map_prev > 300


@pytest.mark.parametrize("seed", [0, 1])
def test_bocd_detects_mean_shift(seed):
    det = BOCD(drop_threshold=100, hazard=1 / 500)
    cps = det.feed(_mean_shift(seed=seed))
    assert any(1100 <= c <= 1350 for c in cps)


def test_bocd_truncation_bounds_memory(monkeypatch):
    """A coarser truncation threshold must prune run-length slots; the
    untruncated posterior keeps one slot per step (the paper's O(n))."""
    rng = np.random.default_rng(3)
    xs = rng.standard_normal(2000)
    monkeypatch.setattr(bocd, "TRUNC", 1e-3)
    coarse = BOCD()
    coarse.feed(xs)
    monkeypatch.setattr(bocd, "TRUNC", 0.0)
    fine = BOCD()
    fine.feed(xs)
    assert len(fine.r) == 2001
    assert len(coarse.r) < len(fine.r) // 2


# ---------------- ChangeFinder / SDAR --------------------------------
def test_levinson_durbin_solves_yule_walker():
    # AR(2) process with known coefficients.
    rng = np.random.default_rng(4)
    a_true = np.array([0.6, -0.3])
    x = np.zeros(20000)
    e = rng.standard_normal(20000)
    for i in range(2, 20000):
        x[i] = a_true[0] * x[i - 1] + a_true[1] * x[i - 2] + e[i]
    c = np.array([np.dot(x[:20000 - j], x[j:]) / 20000 for j in range(3)])
    a = _levinson_durbin(c, 2)
    np.testing.assert_allclose(a, a_true, atol=0.05)


def test_sdar_score_spikes_on_shift(monkeypatch):
    monkeypatch.setattr(changefinder, "ORDER", 2)
    sdar = SDAR(r=0.02)
    rng = np.random.default_rng(5)
    pre = [sdar.update(float(x)) for x in rng.standard_normal(800)]
    post = [sdar.update(float(x)) for x in rng.standard_normal(50) + 8.0]
    assert max(post) > np.mean(pre[200:]) + 5


@pytest.mark.parametrize("seed", [0, 1])
def test_changefinder_detects_mean_shift(seed, monkeypatch):
    monkeypatch.setattr(changefinder, "ORDER", 2)
    det = ChangeFinder(r=0.02, threshold=1.5)
    cps = det.feed(_mean_shift(seed=seed))
    assert any(1150 <= c <= 1400 for c in cps)


def test_changefinder_threshold_monotone():
    series = _mean_shift(mag=2.0, seed=6)
    low = ChangeFinder(r=0.02, threshold=1.0).feed(series)
    high = ChangeFinder(r=0.02, threshold=100.0).feed(series)
    assert len(high) <= len(low)


# ---------------- Window ---------------------------------------------
def test_ar_cost_zero_on_pure_ar():
    rng = np.random.default_rng(7)
    x = np.sin(2 * np.pi * np.arange(400) / 20)
    assert ar_cost(x, order=3) < 1e-6 * len(x)  # sinusoid is AR(2)-exact
    noisy = x + rng.standard_normal(400)
    assert ar_cost(noisy, order=3) > ar_cost(x, order=3)


def test_ar_cost_short_segment_fallback():
    seg = np.array([1.0, 2.0, 3.0])
    assert np.isclose(ar_cost(seg, order=3), np.sum((seg - 2.0) ** 2))


@pytest.mark.parametrize("seed", [0, 1])
def test_window_detects_dynamics_change(seed):
    rng = np.random.default_rng(seed)
    n = 1500
    a = np.sin(2 * np.pi * np.arange(n) / 20) + 0.1 * rng.standard_normal(n)
    b = rng.standard_normal(n) * 0.5 + 3.0
    det = WindowSegmenter(w=20, threshold=0.2)
    cps = det.feed(np.concatenate([a, b]))
    assert any(abs(c - n) <= 200 for c in cps)


def test_window_stride_controls_eval_points():
    det = WindowSegmenter(w=20, stride=10)
    assert det.stride == 10
    det2 = WindowSegmenter(w=20)
    assert det2.stride == 10  # default w // 2


# ---------------- NEWMA ----------------------------------------------
@pytest.mark.parametrize("seed", [0, 1])
def test_newma_detects_shape_change(seed):
    rng = np.random.default_rng(seed)
    n = 1500
    a = np.sin(2 * np.pi * np.arange(n) / 20) + 0.1 * rng.standard_normal(n)
    b = np.sign(np.sin(2 * np.pi * np.arange(n) / 33)) + 0.1 * rng.standard_normal(n)
    det = NEWMA(w=20, quantile=1.0)
    cps = det.feed(np.concatenate([a, b]))
    assert any(abs(c - n) <= 300 for c in cps)


def test_newma_statistic_finite_and_reset():
    det = NEWMA(w=15)
    rng = np.random.default_rng(9)
    det.feed(rng.standard_normal(500))
    assert np.isfinite(det.last_score)
    assert len(det.stats) <= det.stats.maxlen
