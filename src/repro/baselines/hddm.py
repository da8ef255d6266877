"""HDDM — Hoeffding's-bound Drift Detection (Frías-Blanco et al., TKDE 2015).

The A-test variant (HDDM_A): track the cumulative mean of a bounded
stream (here, the binary error stream of DESIGN.md S4) and the "best"
cut point — the prefix whose upper confidence bound on the mean is
lowest.  Drift is signalled when the mean of the samples after the cut
exceeds the cut's mean by more than the two-sample Hoeffding deviation

    eps(a) = sqrt( (1/n_cut + 1/n_rest) / 2 * ln(1/a) )

at confidence ``drift_confidence`` (the paper tunes 1e-60 on its corpus;
re-tuned on the dev split here).  O(1) time and memory per update
(paper Table 2).
"""
from __future__ import annotations

import math

from repro.baselines.base import ErrorStream, StreamingDetector

__all__ = ["HDDM"]

MIN_N = 30    # errors seen, before and after the cut, before drift is checked
EXCL = 30     # minimum distance between two reported CPs


class HDDM(StreamingDetector):
    def __init__(self, drift_confidence: float = 1e-60) -> None:
        super().__init__()
        self.alpha = drift_confidence
        self.errors = ErrorStream()
        self._reset()

    def _reset(self) -> None:
        self.n = 0
        self.total = 0.0
        self.n_cut = 0
        self.total_cut = 0.0
        self.bound_cut = float("inf")

    @staticmethod
    def _eps(n: int, alpha: float) -> float:
        return math.sqrt(math.log(1.0 / alpha) / (2.0 * n))

    def _step(self, x: float) -> int | None:
        e = self.errors.push(x)
        self.n += 1
        self.total += e
        mean = self.total / self.n
        # Track the cut with the lowest upper confidence bound.
        bound = mean + self._eps(self.n, self.alpha)
        if bound < self.bound_cut:
            self.bound_cut = bound
            self.n_cut = self.n
            self.total_cut = self.total
        n_rest = self.n - self.n_cut
        if self.n < MIN_N or n_rest < MIN_N:
            return None
        mean_cut = self.total_cut / self.n_cut
        mean_rest = (self.total - self.total_cut) / n_rest
        eps = math.sqrt(
            (1.0 / self.n_cut + 1.0 / n_rest) / 2.0
            * math.log(1.0 / self.alpha))
        if (mean_rest - mean_cut > eps
                and self._spaced(self.pos, EXCL)):
            self._reset()
            self.errors.reset()
            return self.pos
        return None
