"""NEWMA (Keriven, Garreau & Poli, IEEE TSP 2020).

No-prior-knowledge online change detection: two exponentially weighted
moving averages of a random feature embedding, with *different*
forgetting factors, track the recent and the less-recent data
distribution; their distance spikes when the distribution changes.  The
threshold adapts online as a quantile of the statistic's recent history
(the paper tunes quantile 1.0, i.e. the running maximum).

Features: random Fourier features of the lag-embedded signal
``[x_{t-L+1} .. x_t]`` (L = the annotated subsequence width), which
makes the detector sensitive to shape changes, not just mean/variance.
The fast/slow forgetting factors follow the NEWMA window heuristic
``lambda = 2/(B+1)`` with windows ``B`` and ``4B``.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from repro.baselines.base import StreamingDetector

__all__ = ["NEWMA"]

N_FEATURES = 64   # random Fourier features
HISTORY = 1000    # past statistics the adaptive threshold is taken over
SEED = 7          # seed of the random features


class NEWMA(StreamingDetector):
    def __init__(self, w: int = 50, quantile: float = 1.0) -> None:
        super().__init__()
        self.w = w
        self.quantile = quantile
        self.excl = 2 * w
        rng = np.random.default_rng(SEED)
        # RFF for a Gaussian kernel with unit bandwidth on z-scored lags.
        self.W = rng.standard_normal((N_FEATURES, w))
        self.b = rng.uniform(0, 2 * np.pi, N_FEATURES)
        self.lam_fast = 2.0 / (w + 1)
        self.lam_slow = 2.0 / (4 * w + 1)
        self.m_fast = np.zeros(N_FEATURES)
        self.m_slow = np.zeros(N_FEATURES)
        self.lags: deque[float] = deque(maxlen=w)
        self.stats: deque[float] = deque(maxlen=HISTORY)
        self.last_score = 0.0

    def _feat(self) -> np.ndarray:
        v = np.asarray(self.lags)
        s = v.std()
        v = (v - v.mean()) / (s if s > 1e-12 else 1.0)
        return np.cos(self.W @ v + self.b)

    def _step(self, x: float) -> int | None:
        self.lags.append(x)
        if len(self.lags) < self.w:
            return None
        z = self._feat()
        self.m_fast = (1 - self.lam_fast) * self.m_fast + self.lam_fast * z
        self.m_slow = (1 - self.lam_slow) * self.m_slow + self.lam_slow * z
        stat = float(np.linalg.norm(self.m_fast - self.m_slow))
        self.last_score = stat
        # Adaptive threshold from history *before* this point.
        if len(self.stats) >= 50:
            thr = float(np.quantile(np.asarray(self.stats), self.quantile))
        else:
            thr = np.inf
        self.stats.append(stat)
        if stat <= thr or not self._spaced(self.pos, self.excl):
            return None
        # Reset averages so one change yields one report.
        self.m_fast = z.copy()
        self.m_slow = z.copy()
        self.stats.clear()
        return self.pos
