"""Sliding-window discrepancy baseline with autoregressive cost.

The paper's "Window" competitor (from Truong et al.'s review): keep a
buffer of ``c = FACTOR * w`` recent points, split it at the centre, and
report a CP when the *discrepancy* — the cost reduction of modelling the
halves separately rather than jointly — exceeds a threshold (paper-tuned
0.2 with the autoregressive cost, the best configuration of their grid).

Cost of a segment is the residual sum of squares of a least-squares
AR(``ORDER``) fit (ruptures' ``CostAR``), normalised by the joint cost
so the threshold is scale-free.  Evaluations (O(c * p^2) each) run every
``stride`` points: 1 in Table 2's sweep (paper-exact), ``w // 2`` by
default in Table 3 (detections shift by at most the stride).  Reported
CPs are at least ``c // 2`` points apart.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from repro.baselines.base import StreamingDetector

__all__ = ["WindowSegmenter", "ar_cost"]

FACTOR = 10   # buffer length in subsequence widths
ORDER = 3     # AR order of the segment cost


def ar_cost(seg: np.ndarray, order: int) -> float:
    """Residual sum of squares of a least-squares AR(order) fit with
    intercept; falls back to variance cost for too-short segments."""
    n = len(seg)
    if n <= order + 2:
        return float(np.sum((seg - seg.mean()) ** 2))
    y = seg[order:]
    X = np.empty((n - order, order + 1))
    X[:, 0] = 1.0
    for j in range(1, order + 1):
        X[:, j] = seg[order - j:n - j]
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    return float(resid @ resid)


class WindowSegmenter(StreamingDetector):
    """Centre-split discrepancy detector over a fixed-size buffer."""

    def __init__(self, w: int = 100, threshold: float = 0.2,
                 stride: int | None = None) -> None:
        super().__init__()
        self.c = FACTOR * w
        self.threshold = threshold
        self.stride = stride if stride is not None else max(1, w // 2)
        self.excl = self.c // 2
        self.buf: deque[float] = deque(maxlen=self.c)
        self.last_score = 0.0

    def _step(self, x: float) -> int | None:
        self.buf.append(x)
        if len(self.buf) < self.c or self.pos % self.stride:
            return None
        seg = np.asarray(self.buf)
        half = self.c // 2
        full = ar_cost(seg, ORDER)
        gain = full - ar_cost(seg[:half], ORDER) - ar_cost(seg[half:], ORDER)
        self.last_score = gain / max(full, 1e-12)
        if self.last_score <= self.threshold:
            return None
        cp = self.pos - half  # buffer centre, absolute
        return cp if self._spaced(cp, self.excl) else None
