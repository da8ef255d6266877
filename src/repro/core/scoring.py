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

The thresholds depend only on the offsets, so the caller computes them
once per update with :func:`pred_thresholds` and passes them to both
:func:`cross_val_scores` and :func:`split_label_counts`.  Both F1
denominators are positive for every split: class 0 has ``s >= 1`` true
members and class 1 has ``m - s >= 1``, so no split needs a
zero-division guard.
"""
from __future__ import annotations

import numpy as np

__all__ = [
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
    exactly when ``s`` passes it.  Selected column-wise: each of the
    first ``ceil(k/2) - 1`` bubble passes drops the smallest remaining
    column value, then the minimum of the rest is the threshold.
    """
    k = offsets.shape[1]
    need = (k + 1) // 2  # ceil(k/2): majority with ties to class 0
    rest = [offsets[:, c] for c in range(k)]
    for _ in range(need - 1):
        low, kept = rest[0], []
        for col in rest[1:-1]:
            kept.append(np.maximum(low, col))
            low = np.minimum(low, col)
        kept.append(np.maximum(low, rest[-1]))
        rest = kept
    t = rest[0].copy()
    for col in rest[1:]:
        np.minimum(t, col, out=t)
    return t


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
    # Shifted by one, so bin v counts thresholds t = v - 1; a threshold
    # below every split behaves as -1, and one above m - 1 lands in a bin
    # that is never read.
    tc = np.maximum(t, -1)
    tc += 1
    hi = np.maximum(tc, np.arange(1, m + 1))

    def cum_below(v: np.ndarray) -> np.ndarray:
        """c[s-1] = #{v <= s} = #{v - 1 < s} for s = 1..m-1."""
        return np.cumsum(np.bincount(v, minlength=m)[:m])[1:].astype(
            np.float64)

    s = np.arange(1.0, m)
    ms = m - s
    tp0 = cum_below(hi)
    pred0 = cum_below(tc)
    # TP1 = m - #{min(j, t_j) < s}, and #{min < s} = s + pred0 - tp0.
    tp1 = ms - pred0
    tp1 += tp0
    f1_0 = 2.0 * tp0 / (pred0 + s)
    f1_1 = 2.0 * tp1 / ((m - pred0) + ms)
    return 0.5 * (f1_0 + f1_1)


def split_label_counts(t: np.ndarray, s: int):
    """Predicted-label counts on each side of split ``s`` — the input of
    the significance test (paper Section 3.3).

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
