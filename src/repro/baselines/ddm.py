"""DDM — Drift Detection Method (Gama et al., SBIA 2004).

Monitors the error rate ``p`` of a model over a stream of binary errors
and its standard deviation ``s = sqrt(p(1-p)/n)``.  While learning, the
pair ``(p + s)`` decreases; DDM records the minimum ``p_min + s_min``
and signals drift when ``p + s`` rises ``drift_level`` standard
deviations above the recorded minimum (paper Table 2: O(1) update).

The paper tunes the "amount of issued drifts" parameter to 20 — the
``drift_level`` multiplier here (the classic default is 3); it is
re-tuned on the dev split for our corpus.  The binary error stream
comes from :class:`~repro.baselines.base.ErrorStream` (DESIGN.md S4),
which resets on drift so the model relearns the new concept.
"""
from __future__ import annotations

from repro.baselines.base import ErrorStream, StreamingDetector

__all__ = ["DDM"]

MIN_N = 30    # errors seen before drift is checked
EXCL = 30     # minimum distance between two reported CPs


class DDM(StreamingDetector):
    def __init__(self, drift_level: float = 20.0) -> None:
        super().__init__()
        self.drift_level = drift_level
        self.errors = ErrorStream()
        self._reset()

    def _reset(self) -> None:
        self.n = 0
        self.p = 1.0
        self.s = 0.0
        self.psmin = float("inf")
        self.pmin = 1.0
        self.smin = 0.0

    def _step(self, x: float) -> int | None:
        e = self.errors.push(x)
        self.n += 1
        self.p += (e - self.p) / self.n
        self.s = (self.p * (1 - self.p) / self.n) ** 0.5
        if self.n < MIN_N:
            return None
        if self.p + self.s <= self.psmin:
            self.psmin = self.p + self.s
            self.pmin, self.smin = self.p, self.s
        if (self.p + self.s > self.pmin + self.drift_level * self.smin
                and self._spaced(self.pos, EXCL)):
            self._reset()
            self.errors.reset()
            return self.pos
        return None
