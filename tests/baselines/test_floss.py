"""Unit tests for the FLOSS baseline."""
import numpy as np
import pytest

from repro.baselines.floss import FLOSS, ideal_arc_curve_1d
from repro.harness.throughput import _test_stream


def test_iac_positive_and_peaked_inside():
    iac = ideal_arc_curve_1d(200)
    assert np.all(iac > 0)
    assert iac[0] < iac.max() and iac[-1] < iac.max()
    # boundaries expect fewer crossings than the interior
    assert iac[100] > 10 * max(iac[1], 1e-9)


def test_iac_matches_monte_carlo():
    """The closed form must match simulated uniform right-arcs."""
    m = 120
    rng = np.random.default_rng(0)
    counts = np.zeros(m)
    trials = 4000
    for _ in range(trials):
        j = rng.integers(0, m)
        if j == m - 1:
            continue
        r = rng.integers(j + 1, m)
        counts[j + 1:r + 1] += 1
    expected = ideal_arc_curve_1d(m) * (trials / m)
    interior = slice(10, m - 10)
    ratio = counts[interior] / expected[interior]
    assert abs(ratio.mean() - 1.0) < 0.15


@pytest.mark.parametrize("seed", [0, 1])
def test_floss_detects_shape_change(seed):
    rng = np.random.default_rng(seed)
    n = 2500
    a = np.sin(2 * np.pi * np.arange(n) / 20) + 0.1 * rng.standard_normal(n)
    b = np.sign(np.sin(2 * np.pi * np.arange(n) / 30)) + 0.1 * rng.standard_normal(n)
    det = FLOSS(d=1000, w=20, threshold=0.45)
    cps = det.run(np.concatenate([a, b]))
    assert any(abs(c - n) <= 300 for c in cps)


def test_floss_mostly_silent_on_homogeneous_periodic():
    """The paper itself notes FLOSS's arc curve is noisy with false
    positives (Section 4.5); allow at most one spurious report on a
    homogeneous periodic stream."""
    rng = np.random.default_rng(2)
    n = 4000
    series = np.sin(2 * np.pi * np.arange(n) / 25) + 0.05 * rng.standard_normal(n)
    det = FLOSS(d=1000, w=25, threshold=0.3)
    assert len(det.run(series)) <= 1


def test_floss_arcs_point_right():
    rng = np.random.default_rng(3)
    det = FLOSS(d=600, w=15, threshold=0.0)  # threshold 0: never fires
    det.run(np.sin(2 * np.pi * np.arange(800) / 15)
            + 0.05 * rng.standard_normal(800))
    rnn = det._knn.N[:, 0]
    rel = rnn - det._knn.start_abs
    m = det._knn.n_subseqs
    idx = np.arange(m)
    set_mask = rnn >= 0
    assert np.all(rel[set_mask] > idx[set_mask])


def test_floss_exclusion_zone_suppresses_repeats():
    rng = np.random.default_rng(4)
    n = 2500
    a = np.sin(2 * np.pi * np.arange(n) / 20) + 0.1 * rng.standard_normal(n)
    b = 2 * ((np.arange(n) / 33) % 1) - 1 + 0.1 * rng.standard_normal(n)
    det = FLOSS(d=1000, w=20, threshold=0.45)
    cps = det.run(np.concatenate([a, b]))
    diffs = np.diff(cps)
    assert np.all(diffs > det.excl)


@pytest.mark.parametrize("d,expected", [
    (500, [1886, 2012, 3964, 6001]),
    (1000, [1586, 1986, 3949, 5859, 6001]),
])
def test_floss_golden_change_points(d, expected):
    """Pins FLOSS's output, so a change to the shared k-NN that moves
    an arc shows up here."""
    series, _ = _test_stream(8000)
    assert FLOSS(d=d, w=25).run(series) == expected
