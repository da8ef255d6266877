"""Equivalence and unit tests for the ClaSP scoring (paper Algorithm 3)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import (cross_val_scores, cross_val_scores_naive,
                                pred_thresholds, split_label_counts)
from repro.core.streaming_knn import StreamingKNN


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("m", [5, 23, 80])
def test_vectorised_equals_naive_f1(seed, k, m):
    rng = np.random.default_rng(seed)
    offs = rng.integers(-7, m, size=(m, k))
    np.testing.assert_allclose(cross_val_scores(pred_thresholds(offs)),
                               cross_val_scores_naive(offs), atol=1e-12)


def test_sentinel_offsets_behave_as_class_zero():
    """Hugely negative (egressed/unset) offsets must act like always-
    class-0 neighbours, identical to offset -1."""
    m, k = 30, 3
    rng = np.random.default_rng(7)
    offs = rng.integers(0, m, size=(m, k))
    a = offs.copy()
    a[::3, 0] = -1
    b = offs.copy()
    b[::3, 0] = np.iinfo(np.int64).min // 2
    np.testing.assert_allclose(cross_val_scores(pred_thresholds(a)),
                               cross_val_scores(pred_thresholds(b)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(4, 60))
def test_property_vectorised_equals_naive(seed, k, m):
    rng = np.random.default_rng(seed)
    offs = rng.integers(-m, m, size=(m, k))
    np.testing.assert_allclose(cross_val_scores(pred_thresholds(offs)),
                               cross_val_scores_naive(offs), atol=1e-12)


def test_scores_bounded():
    rng = np.random.default_rng(11)
    offs = rng.integers(-5, 50, size=(50, 3))
    p = cross_val_scores(pred_thresholds(offs))
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_perfect_split_scores_one():
    """Neighbours strictly within each half -> F1 = 1 at the boundary."""
    m = 20
    offs = np.empty((m, 3), dtype=np.int64)
    for j in range(m):
        if j < 10:
            pool = [p for p in range(10) if p != j]
        else:
            pool = [p for p in range(10, 20) if p != j]
        offs[j] = pool[:3]
    p = cross_val_scores(pred_thresholds(offs))
    assert np.isclose(p[9], 1.0)          # split s=10
    assert p[9] == p.max()


def test_pred_thresholds_majority_rule():
    offs = np.array([[2, 5, 9], [-1, 0, 8], [7, 7, 7]])
    t = pred_thresholds(offs)
    # ceil(3/2)=2nd smallest: 5, 0, 7
    np.testing.assert_array_equal(t, [5, 0, 7])
    # row 0 predicts 0 iff s > 5 (2 of 3 neighbours < s)
    assert (offs[0] < 6).sum() >= 2
    assert (offs[0] < 5).sum() < 2


@pytest.mark.parametrize("k", range(1, 8))
def test_pred_thresholds_equals_partition(k):
    """The min/max selection picks the ceil(k/2)-th smallest offset of
    each row exactly, including negative offsets and the unset
    sentinel."""
    rng = np.random.default_rng(k)
    m = 200
    offs = rng.integers(-40, m, size=(m, k))
    offs[::3, rng.integers(k)] = StreamingKNN._UNSET
    offs[5] = StreamingKNN._UNSET
    offs[7] = -1
    need = (k + 1) // 2
    want = np.partition(offs, need - 1, axis=1)[:, need - 1]
    got = pred_thresholds(offs)
    assert got.dtype == offs.dtype
    np.testing.assert_array_equal(got, want)
    # a fresh array, not a view of the offsets
    got[:] = 0
    assert np.array_equal(pred_thresholds(offs), want)


def test_split_label_counts_matches_bruteforce():
    rng = np.random.default_rng(13)
    m, k = 25, 3
    offs = rng.integers(-4, m, size=(m, k))
    t = pred_thresholds(offs)
    for s in [1, 5, 12, 24]:
        l0, l1, r0, r1 = split_label_counts(t, s)
        zeros = (offs < s).sum(axis=1)
        pred0 = zeros >= 2
        j = np.arange(m)
        assert l0 == np.sum(pred0 & (j < s))
        assert l1 == np.sum(~pred0 & (j < s))
        assert r0 == np.sum(pred0 & (j >= s))
        assert r1 == np.sum(~pred0 & (j >= s))
        assert l0 + l1 + r0 + r1 == m


def test_degenerate_sizes():
    for m, size in [(0, 0), (1, 0), (2, 1)]:
        t = pred_thresholds(np.zeros((m, 3), dtype=int))
        assert cross_val_scores(t).size == size

