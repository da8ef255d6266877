"""Common streaming-detector interface and shared adapters.

ClaSS and every competitor from the paper's Table 2 implement
:class:`StreamingDetector`.  ``feed(values)`` ingests values in order,
one at a time, and returns every change point they produced; this is
exactly how the paper evaluates ("we simulated the streaming setting by
processing one data point at a time"), and it is the one loop that the
standalone runs, the harnesses and both Spark planes call.

``ErrorStream`` adapts raw values into the binary error stream consumed
by the drift detectors (DDM/HDDM), which monitor a model's error rate.
The paper does not name the base learner for raw signals; the
conventional self-supervised choice is used: the "model" predicts that
the next value stays within 2 standard deviations of the running mean of
the current concept, and the detectors consume its 0/1 error indicator.
The running statistics reset when a drift is flagged (substitution S4 in
DESIGN.md).
"""
from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["StreamingDetector", "ErrorStream"]

Z_THRESH = 2.0  # ErrorStream: an error is a deviation of > Z_THRESH stds
MIN_N = 10      # ErrorStream: values seen before any error is flagged


class StreamingDetector(ABC):
    """One-value-at-a-time change point detector."""

    _last_cp = -10**18                    # last position _spaced accepted

    def __init__(self) -> None:
        self.pos = 0                      # values ingested so far
        self.change_points: list[int] = []

    @abstractmethod
    def _step(self, x: float) -> int | None:
        """Process one value; return a CP position or None.  A step
        that finds several CPs appends all but the latest to
        :attr:`change_points` itself."""

    def _spaced(self, pos: int, excl: int) -> bool:
        """True, and ``pos`` recorded, if ``pos`` lies more than ``excl``
        past the last recorded position: the competitors' exclusion zone
        between two reported CPs."""
        if pos - self._last_cp <= excl:
            return False
        self._last_cp = pos
        return True

    def update(self, x: float) -> int | None:
        """Ingest one value; return the latest CP of this step, or None.
        One value can produce several CPs (ClaSS's warm-up replay), all
        of which enter :attr:`change_points`; :meth:`feed` is the
        lossless entry point that returns every one of them."""
        cp = self._step(float(x))
        self.pos += 1
        if cp is not None:
            self.change_points.append(int(cp))
            return int(cp)
        return None

    def feed(self, values) -> list[int]:
        """Ingest ``values`` in order; return every CP added to
        :attr:`change_points` meanwhile."""
        n = len(self.change_points)
        for x in np.asarray(values, dtype=np.float64).tolist():
            self.update(x)
        return self.change_points[n:]


class ErrorStream:
    """Self-supervised binary error stream for drift detectors.

    ``push(x)`` returns 1 when ``x`` deviates more than ``Z_THRESH``
    running standard deviations from the running mean (Welford), else 0.
    ``reset()`` restarts the statistics (called on detected drift, so a
    new concept is learned from scratch).
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def push(self, x: float) -> int:
        err = 0
        if self.n >= MIN_N:
            std = (self.m2 / self.n) ** 0.5
            if std > 1e-12 and abs(x - self.mean) > Z_THRESH * std:
                err = 1
            elif std <= 1e-12 and abs(x - self.mean) > 1e-9:
                err = 1
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)
        return err
