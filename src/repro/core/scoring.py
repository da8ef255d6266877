"""Self-supervised cross-validation scoring — the ClaSP profile.

Implements Algorithm 3 of the ClaSS paper: given the k-NN offsets of the
``m`` subsequences in the (unsegmented suffix of the) sliding window,
compute for every hypothetical split the macro F1 of the self-supervised
k-NN classifier, in ``O(m)`` total.

Split convention
----------------
A split ``s`` (``1 <= s <= m - 1``) labels subsequences ``0 .. s-1`` as
class 0 and ``s .. m-1`` as class 1.  A neighbour offset ``o`` (window-
relative; negative when egressed or left of the scored region) has label
0 iff ``o < s``.  The k-NN prediction for row ``j`` is the majority label
of its ``k`` neighbours, ties going to class 0 ("zeros >= ones" in the
paper's Algorithm 3 line 10).

Closed form
-----------
Within one scoring call the neighbour offsets are fixed, so row ``j``'s
prediction flips 1 -> 0 exactly once: at ``s > t_j`` where ``t_j`` is the
``ceil(k/2)``-th smallest neighbour offset of row ``j``.  Every confusion
matrix cell is then a cumulative histogram:

* ``TP0(s) = #{j : max(j, t_j) < s}``        (true 0 and predicted 0)
* ``TP1(s) = m - #{j : min(j, t_j) < s}``    (true 1 and predicted 1)
* ``pred0(s) = #{j : t_j < s}``

and ``#{j : min(j, t_j) < s} = s + pred0(s) - TP0(s)``, which yields the
whole profile with two ``bincount``/``cumsum`` passes.
This is the same math as the paper's incremental relabelling and is
asserted bit-identical against :func:`cross_val_scores_naive` in tests.
Both F1 denominators are positive for every split: class 0 has
``s >= 1`` true members and class 1 has ``m - s >= 1``, so no split
needs a zero-division guard.

One kernel per update
---------------------
The thresholds depend only on the offsets, so ClaSS computes them once
per update with :func:`pred_thresholds` and hands them to
:func:`best_split`, which builds the two cumulative counts only up to the
last valid split, scores only the valid splits and takes the first
maximum.  The significance test's predicted-label counts at that split
are read off the same two arrays: ``left0 = TP0(s)`` (rows left of ``s``
predicted 0) and ``right0 = pred0(s) - TP0(s)``; ``left1 = s - left0``
and ``right1 = m - s - right0``.  :func:`cross_val_scores` (the whole
profile) shares the counts and the F1 expression with it, and
:func:`split_label_counts` counts the labels directly, as the tests'
oracle.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "best_split",
    "cross_val_scores",
    "cross_val_scores_naive",
    "split_label_counts",
    "pred_thresholds",
]


def pred_thresholds(offsets: np.ndarray) -> np.ndarray:
    """Per-row flip thresholds ``t_j``: row ``j`` predicts class 0 iff
    the split ``s`` satisfies ``s > t_j``.

    ``t_j`` is the ``ceil(k/2)``-th smallest neighbour offset — the count
    of neighbours with offset < s reaches the majority ``ceil(k/2)``
    exactly when ``s`` passes it.  Selected column-wise into a fresh
    array: each of the first ``ceil(k/2) - 1`` bubble passes drops the
    smallest remaining column value, then the minimum of the rest is the
    threshold.  At ClaSS's ``k = 3`` that is the median-of-three network
    ``min(max(a, b), max(min(a, b), c))``, four ufunc calls.
    """
    k = offsets.shape[1]
    cols = list(offsets.T)
    for _ in range((k - 1) // 2):
        low = cols[0]
        for i in range(1, len(cols) - 1):
            cols[i - 1] = np.maximum(low, cols[i])
            low = np.minimum(low, cols[i])
        last = cols.pop()
        cols[-1] = np.maximum(low, last)
    if len(cols) == 1:
        return cols[0].copy()
    t = np.minimum(cols[0], cols[1])
    for col in cols[2:]:
        np.minimum(t, col, out=t)
    return t


def _cum_counts(t: np.ndarray, n: int):
    """``(s, TP0, pred0)`` at the splits ``s = 0 .. n``, three ``(n + 1,)``
    integer arrays: ``s`` itself, ``TP0[s] = #{j < s : t_j < s}`` and
    ``pred0[s] = #{j : t_j < s}``.  One ``bincount``/``cumsum`` pass
    each."""
    s = np.arange(n + 1)
    # Shifted by one, so bin v counts thresholds t = v - 1 and the
    # cumulative count at s is #{t < s}; a threshold below every split
    # behaves as -1, and one above n lands in a bin that is never read.
    tc = np.maximum(t, -1)
    tc += 1
    pred0 = np.bincount(tc, minlength=n + 1)[:n + 1].cumsum()
    # j < s and t_j < s  <=>  max(t_j + 1, j + 1) <= s; rows j >= n never
    # count at a split s <= n.
    top = tc[:n]
    np.maximum(top, s[1:], out=top)
    tp0 = np.bincount(top, minlength=n + 1)[:n + 1].cumsum()
    return s, tp0, pred0


def _macro_f1(s: np.ndarray, tp0: np.ndarray, pred0: np.ndarray,
              m: int) -> np.ndarray:
    """Macro F1 at the splits ``s`` of ``m`` rows, from their ``TP0`` and
    ``pred0`` counts (paper Algorithm 3).

    With ``F1_c = 2 TP_c / (pred_c + true_c)``, ``0.5 * (F1_0 + F1_1)``
    is ``TP0 / (pred0 + s) + TP1 / ((m - pred0) + (m - s))`` bit for bit,
    since scaling by 2 and by 0.5 is exact.  The second denominator is
    ``2m - (pred0 + s)``, and ``TP1 = m - #{min(j, t_j) < s}`` with
    ``#{min(j, t_j) < s} = s + pred0 - TP0``.  The counts stay exact
    integers until the two divisions.
    """
    den0 = pred0 + s
    tp1 = tp0 - den0
    tp1 += m
    score = np.true_divide(tp0, den0)
    score += tp1 / (2 * m - den0)
    return score


def cross_val_scores(t: np.ndarray) -> np.ndarray:
    """Macro-F1 ClaSP profile over all splits ``s = 1 .. m-1`` in ``O(m)``.

    Parameters
    ----------
    t:
        ``(m,)`` flip thresholds of :func:`pred_thresholds` (may be
        negative).

    Returns
    -------
    ``(m - 1,)`` array; entry ``i`` is the score of split ``s = i + 1``.
    """
    m = t.shape[0]
    if m < 2:
        return np.empty(0)
    s, tp0, pred0 = _cum_counts(t, m - 1)
    return _macro_f1(s[1:], tp0[1:], pred0[1:], m)


def best_split(t: np.ndarray, lo: int, hi: int):
    """The scoring step of one ClaSS update: the best split in
    ``[lo, hi]`` and the predicted-label counts on its two sides.

    ``t`` holds the ``(m,)`` flip thresholds of :func:`pred_thresholds`
    and ``1 <= lo <= hi <= m - 1``.  Returns ``(s, left0, left1, right0,
    right1)``: ``s`` is the first split in ``[lo, hi]`` with the maximal
    score of :func:`cross_val_scores`, and the counts are those of
    :func:`split_label_counts` at ``s``, read off the same cumulative
    counts: ``left0 = TP0(s)`` and ``right0 = pred0(s) - TP0(s)``.
    """
    m = t.shape[0]
    splits, tp0, pred0 = _cum_counts(t, hi)
    s = lo + int(np.argmax(_macro_f1(splits[lo:], tp0[lo:], pred0[lo:], m)))
    l0 = int(tp0[s])
    r0 = int(pred0[s]) - l0
    return s, l0, s - l0, r0, m - s - r0


def split_label_counts(t: np.ndarray, s: int):
    """Predicted-label counts on each side of split ``s`` — the input of
    the significance test (paper Section 3.3) — counted directly: the
    test oracle of :func:`best_split`'s counts.

    ``t`` holds the flip thresholds of :func:`pred_thresholds`.  Returns
    ``(left0, left1, right0, right1)``: counts of predicted 0/1 labels
    among rows ``< s`` and rows ``>= s``.
    """
    l0 = int(np.count_nonzero(t[:s] < s))
    r0 = int(np.count_nonzero(t[s:] < s))
    return l0, s - l0, r0, t.shape[0] - s - r0


def cross_val_scores_naive(offsets: np.ndarray) -> np.ndarray:
    """Independent per-split recomputation (no incremental state): the
    test oracle for :func:`cross_val_scores`.  O(m^2 * k)."""
    m, _ = offsets.shape
    out = np.empty(max(0, m - 1))
    j = np.arange(m)
    for s in range(1, m):
        y_true = (j >= s).astype(int)            # 0 left, 1 right
        zeros = (offsets < s).sum(axis=1)
        ones = offsets.shape[1] - zeros
        y_pred = (ones > zeros).astype(int)      # ties -> class 0
        tp0 = int(np.sum((y_true == 0) & (y_pred == 0)))
        tp1 = int(np.sum((y_true == 1) & (y_pred == 1)))
        p0, n0 = int(np.sum(y_pred == 0)), s
        p1, n1 = m - p0, m - s
        f1_0 = 2 * tp0 / (p0 + n0) if (p0 + n0) else 1.0
        f1_1 = 2 * tp1 / (p1 + n1) if (p1 + n1) else 1.0
        out[s - 1] = 0.5 * (f1_0 + f1_1)
    return out
