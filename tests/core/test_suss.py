"""Tests for subsequence-width learning (paper Section 3.4)."""
import numpy as np
import pytest

from repro.core import suss as suss_module
from repro.core.suss import suss


def _sine(period, n=2000, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    return np.sin(2 * np.pi * np.arange(n) / period) + noise * rng.standard_normal(n)


def test_learn_width_within_bounds():
    w = suss(_sine(30), lbound=5, ubound=150)
    assert 3 <= w <= 150


def test_suss_on_periodic_signal_reasonable():
    """SuSS should pick a width well below the ubound for a signal whose
    statistics stabilise quickly (periodic)."""
    w = suss(_sine(20, n=3000), lbound=5, ubound=400)
    assert 5 <= w <= 200


def test_suss_constant_series_falls_back():
    assert suss(np.zeros(500), lbound=10) == 10


def test_suss_short_series():
    w = suss(np.sin(np.arange(40)), lbound=10)
    assert 3 <= w <= 20


def test_learn_width_deterministic():
    s = _sine(25, seed=3)
    assert suss(s) == suss(s)


def _frozen_suss_score(ts, w, global_stats):
    """``_suss_score`` as it was before it shared ``rolling_mean_std``."""
    roll = np.lib.stride_tricks.sliding_window_view(ts, w)
    g_mean, g_std, g_rng = global_stats
    d_mean = roll.mean(axis=1) - g_mean
    d_std = roll.std(axis=1) - g_std
    d_rng = (roll.max(axis=1) - roll.min(axis=1)) - g_rng
    dist = np.sqrt(d_mean**2 + d_std**2 + d_rng**2) / np.sqrt(w)
    return float(dist.mean())


@pytest.mark.parametrize("period,n,ubound", [
    (20, 3000, 400), (37, 5000, 500), (150, 10_000, 1000)])
def test_suss_matches_frozen_score(monkeypatch, period, n, ubound):
    ts = _sine(period, n=n, noise=0.2, seed=period)
    stats = (0.5, 0.3, 1.0)
    for w in (1, 10, 37, ubound):
        assert (suss_module._suss_score(ts, w, stats)
                == _frozen_suss_score(ts, w, stats)), w
    got = suss(ts, lbound=10, ubound=ubound)
    monkeypatch.setattr(suss_module, "_suss_score", _frozen_suss_score)
    assert got == suss(ts, lbound=10, ubound=ubound)
