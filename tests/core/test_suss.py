"""Tests for subsequence-width learning (paper Section 3.4)."""
import numpy as np

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
