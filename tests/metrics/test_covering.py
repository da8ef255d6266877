"""Tests for the Covering metric (paper Eq. 6) and rank aggregation."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.covering import covering, segments_from_cps
from repro.metrics.ranks import mean_ranks, nemenyi_cd, wins_and_ties


# ---------------- segments_from_cps ----------------------------------
def test_segments_basic():
    assert segments_from_cps([30, 70], 100) == [(0, 30), (30, 70), (70, 100)]


def test_segments_empty():
    assert segments_from_cps([], 50) == [(0, 50)]


def test_segments_clip_and_dedupe():
    assert segments_from_cps([0, 10, 10, 200, -5], 100) == [(0, 10), (10, 100)]


def test_segments_unsorted_input():
    assert segments_from_cps([70, 30], 100) == [(0, 30), (30, 70), (70, 100)]


# ---------------- covering -------------------------------------------
def test_perfect_prediction_scores_one():
    assert covering([25, 60], [25, 60], 100) == 1.0


def test_single_segment_no_prediction_scores_one():
    assert covering([], [], 1000) == 1.0


def test_hand_computed_example():
    # truth: [0,50) [50,100); pred: [0,60) [60,100)
    # seg1: best Jaccard = |[0,50)| inter [0,60) / union = 50/60
    # seg2: [50,100) vs [60,100): 40/50
    expect = (50 * (50 / 60) + 50 * (40 / 50)) / 100
    assert np.isclose(covering([50], [60], 100), expect)


def test_empty_prediction_on_two_segments():
    # pred = one big segment [0,100): J(seg,[0,100)) = |seg|/100
    expect = (50 * 0.5 + 50 * 0.5) / 100
    assert np.isclose(covering([50], [], 100), expect)


def test_over_segmentation_penalised():
    good = covering([500], [500], 1000)
    noisy = covering([500], list(range(100, 1000, 100)), 1000)
    assert good > noisy


def test_near_miss_close_to_one():
    assert covering([500], [510], 1000) > 0.95


def test_off_by_far_much_worse():
    assert covering([500], [900], 1000) < covering([500], [550], 1000)


@settings(max_examples=50, deadline=None)
@given(st.integers(10, 500),
       st.lists(st.integers(1, 499), max_size=6),
       st.lists(st.integers(1, 499), max_size=6))
def test_property_bounds_and_perfect(n, true_cps, pred_cps):
    n = max(n, 10)
    c = covering(true_cps, pred_cps, n)
    assert 0.0 <= c <= 1.0
    assert covering(true_cps, true_cps, n) == pytest.approx(1.0)


def test_invalid_length_raises():
    with pytest.raises(ValueError):
        covering([1], [1], 0)


# ---------------- ranks ----------------------------------------------
def _frame():
    return pd.DataFrame({
        "a": [0.9, 0.8, 0.7],
        "b": [0.5, 0.9, 0.6],
        "c": [0.1, 0.2, 0.9],
    }, index=["s1", "s2", "s3"])


def test_mean_ranks_ordering():
    r = mean_ranks(_frame())
    assert list(r.index)[0] == "a"          # best mean rank first
    assert r["a"] < r["c"]


def test_mean_ranks_ties_average():
    df = pd.DataFrame({"a": [0.5], "b": [0.5], "c": [0.1]})
    r = mean_ranks(df)
    assert r["a"] == r["b"] == 1.5
    assert r["c"] == 3.0


def test_wins_and_ties_counts():
    w = wins_and_ties(_frame())
    assert w["a"] == 1 and w["b"] == 1 and w["c"] == 1
    df = pd.DataFrame({"a": [0.9, 0.9], "b": [0.9, 0.1]})
    w = wins_and_ties(df)
    assert w["a"] == 2 and w["b"] == 1   # tie counts for both


def test_nemenyi_cd_value():
    # k=9 methods, N=107 series: CD = 3.102 * sqrt(9*10/(6*107))
    cd = nemenyi_cd(9, 107)
    assert np.isclose(cd, 3.102 * np.sqrt(90 / 642), rtol=1e-12)
    with pytest.raises(ValueError):
        nemenyi_cd(50, 10)
