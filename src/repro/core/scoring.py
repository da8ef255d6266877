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

which yields the whole profile with three ``bincount``/``cumsum`` passes.
This is the same math as the paper's incremental relabelling and is
asserted bit-identical against :func:`cross_val_scores_naive` in tests.
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
    exactly when ``s`` passes it.
    """
    k = offsets.shape[1]
    need = (k + 1) // 2  # ceil(k/2): majority with ties to class 0
    return np.partition(offsets, need - 1, axis=1)[:, need - 1]


def _f1(tp: np.ndarray, pred_pos: np.ndarray, true_pos) -> np.ndarray:
    """F1 = 2TP / (pred_pos + true_pos); 1.0 for the degenerate empty
    class (no true and no predicted members), matching sklearn's
    zero_division-free case for macro averaging over present labels."""
    denom = pred_pos + true_pos
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(denom > 0, 2.0 * tp / np.where(denom == 0, 1, denom), 1.0)
    return f


def cross_val_scores(offsets: np.ndarray) -> np.ndarray:
    """Macro-F1 ClaSP profile over all splits ``s = 1 .. m-1`` in ``O(m)``.

    Parameters
    ----------
    offsets:
        ``(m, k)`` window-relative neighbour offsets (may be negative).

    Returns
    -------
    ``(m - 1,)`` array; entry ``i`` is the score of split ``s = i + 1``.
    """
    m, _ = offsets.shape
    if m < 2:
        return np.empty(0)
    t = pred_thresholds(offsets)
    j = np.arange(m)
    # Clip into [-1, m-1]: a threshold below every split behaves as -1.
    tc = np.clip(t, -1, m - 1)
    hi = np.maximum(j, tc)
    lo = np.minimum(j, tc)

    def cum_below(v: np.ndarray) -> np.ndarray:
        """c[s-1] = #{v < s} for s = 1..m-1."""
        counts = np.bincount(v + 1, minlength=m + 1)  # v in [-1, m-1]
        # cumsum[i] = #{v <= i-1}; we need #{v < s} = #{v <= s-1} at
        # array position s-1, i.e. cumsum indices 1..m-1.
        return np.cumsum(counts)[1:m]

    s = np.arange(1, m, dtype=np.float64)
    tp0 = cum_below(hi).astype(np.float64)
    pred0 = cum_below(tc).astype(np.float64)
    tp1 = m - cum_below(lo).astype(np.float64)
    f1_0 = _f1(tp0, pred0, s)
    f1_1 = _f1(tp1, m - pred0, m - s)
    return 0.5 * (f1_0 + f1_1)


def split_label_counts(offsets: np.ndarray, s: int):
    """Predicted-label counts on each side of split ``s`` — the input of
    the significance test (paper Section 3.3).

    Returns ``(left0, left1, right0, right1)``: counts of predicted 0/1
    labels among rows ``< s`` and rows ``>= s``.
    """
    t = pred_thresholds(offsets)
    pred0 = t < s
    j = np.arange(offsets.shape[0])
    left = j < s
    l0 = int(np.count_nonzero(pred0 & left))
    l1 = int(np.count_nonzero(~pred0 & left))
    r0 = int(np.count_nonzero(pred0 & ~left))
    r1 = int(np.count_nonzero(~pred0 & ~left))
    return l0, l1, r0, r1


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
