"""ChangeFinder (Yamanishi & Takeuchi, KDD 2002).

Two-stage outlier/change scoring with Sequentially Discounting AR (SDAR)
models: the first SDAR scores each point's predictive log-loss, scores
are smoothed, a second SDAR scores the smoothed score series, and a
final smoothing yields the change score.  A CP is reported when the
score exceeds a threshold (the paper tunes 50 on its corpus; re-tuned on
the dev split here) with an exclusion zone against repeated reports.

The SDAR update uses discounted mean/autocovariance estimates and
Levinson-Durbin to solve the Yule-Walker equations — O(p^2) per point
(Table 2's ``O(c^2)`` with the model order as the window constant).
"""
from __future__ import annotations

from collections import deque

import numpy as np

from repro.baselines.base import StreamingDetector

__all__ = ["ChangeFinder", "SDAR"]

ORDER = 3     # AR order p of both SDAR stages
SMOOTH = 7    # moving-average length over each stage's scores
EXCL = 200    # minimum distance between two reported CPs


def _levinson_durbin(c: np.ndarray, order: int) -> np.ndarray:
    """AR coefficients from autocovariances c[0..order] (Yule-Walker)."""
    a = np.zeros(order + 1)
    a[0] = 1.0
    e = c[0] if c[0] > 1e-12 else 1e-12
    for i in range(1, order + 1):
        acc = c[i] + np.dot(a[1:i], c[1:i][::-1])
        # Clamp the reflection coefficient: near-singular covariance
        # estimates (early in the stream) otherwise produce |kappa| >> 1
        # and astronomically wrong predictions.
        kappa = float(np.clip(-acc / e, -0.999, 0.999))
        a[1:i + 1] = a[1:i + 1] + kappa * a[i - 1::-1][:i]
        e *= max(1.0 - kappa * kappa, 1e-12)
    return -a[1:]  # prediction coefficients


class SDAR:
    """Sequentially discounting AR model with Gaussian log-loss score."""

    def __init__(self, r: float) -> None:
        self.r, self.order = r, ORDER
        self.mu = 0.0
        self.sigma = 1.0
        self.c = np.zeros(ORDER + 1)
        self.hist: deque[float] = deque(maxlen=ORDER)
        self.n = 0
        self.burnin = max(30, int(1.0 / r))

    def update(self, x: float) -> float:
        r, p = self.r, self.order
        self.n += 1
        self.mu = (1 - r) * self.mu + r * x
        full = len(self.hist) == p
        if full:
            lag = np.array(self.hist)[::-1]  # x_{t-1}, ..., x_{t-p}
            dev = x - self.mu
            self.c[0] = (1 - r) * self.c[0] + r * dev * dev
            self.c[1:] = (1 - r) * self.c[1:] + r * dev * (lag - self.mu)
        self.hist.append(x)
        # Burn-in: until the discounted statistics have seen ~1/r
        # samples the covariance estimate is singular and the AR solve
        # meaningless; updating sigma with its wild residuals would
        # poison scores for thousands of steps ((1-r)^t decay).
        if not full or self.n <= self.burnin:
            return 0.0
        a = _levinson_durbin(self.c, p)
        x_hat = self.mu + float(a @ (lag - self.mu))
        err = x - x_hat
        self.sigma = (1 - r) * self.sigma + r * err * err
        sig = max(self.sigma, 1e-12)
        score = 0.5 * (np.log(2 * np.pi * sig) + err * err / sig)
        return float(score)


class ChangeFinder(StreamingDetector):
    """Two-stage SDAR change scoring with thresholded CP reports."""

    def __init__(self, r: float = 0.005, threshold: float = 50.0) -> None:
        super().__init__()
        self.sdar1 = SDAR(r)
        self.sdar2 = SDAR(r)
        self.buf1: deque[float] = deque(maxlen=SMOOTH)
        self.buf2: deque[float] = deque(maxlen=SMOOTH)
        self.threshold = threshold
        self.last_score = 0.0

    def _step(self, x: float) -> int | None:
        s1 = self.sdar1.update(x)
        self.buf1.append(s1)
        y = float(np.mean(self.buf1))
        s2 = self.sdar2.update(y)
        self.buf2.append(s2)
        self.last_score = float(np.mean(self.buf2))
        # Let both stages burn in before trusting scores.
        if self.pos < 4 * max(self.sdar1.order, len(self.buf1)) + 20:
            return None
        if self.last_score <= self.threshold:
            return None
        return self.pos if self._spaced(self.pos, EXCL) else None
