"""Common streaming-detector interface and shared adapters.

ClaSS and every competitor from the paper's Table 2 implement
:class:`StreamingDetector`.  ``feed(values)`` ingests values in order,
one at a time, and returns every change point they produced; this is
exactly how the paper evaluates ("we simulated the streaming setting by
processing one data point at a time"), and it is the one loop that the
standalone runs, the harnesses and both Spark planes call.
``run(series)`` feeds a whole finite series and returns all change
points.

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

__all__ = ["StreamingDetector", "ErrorStream", "DETECTOR_REGISTRY", "make_detector"]


class StreamingDetector(ABC):
    """One-value-at-a-time change point detector."""

    def __init__(self) -> None:
        self.pos = 0                      # values ingested so far
        self.change_points: list[int] = []

    @abstractmethod
    def _step(self, x: float) -> int | None:
        """Process one value; return a CP position or None.  A step
        that finds several CPs appends all but the latest to
        :attr:`change_points` itself."""

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

    def run(self, series: np.ndarray) -> list[int]:
        """Feed a whole series; return all CPs found so far."""
        self.feed(series)
        return list(self.change_points)


class ErrorStream:
    """Self-supervised binary error stream for drift detectors.

    ``push(x)`` returns 1 when ``x`` deviates more than ``z_thresh``
    running standard deviations from the running mean (Welford), else 0.
    ``reset()`` restarts the statistics (called on detected drift, so a
    new concept is learned from scratch).
    """

    def __init__(self, z_thresh: float = 2.0, min_n: int = 10) -> None:
        self.z = z_thresh
        self.min_n = min_n
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def push(self, x: float) -> int:
        err = 0
        if self.n >= self.min_n:
            std = (self.m2 / self.n) ** 0.5
            if std > 1e-12 and abs(x - self.mean) > self.z * std:
                err = 1
            elif std <= 1e-12 and abs(x - self.mean) > 1e-9:
                err = 1
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)
        return err


# Populated lazily to avoid import cycles; see __init__.py.
DETECTOR_REGISTRY: dict[str, type] = {}


def make_detector(name: str, **params) -> StreamingDetector:
    """Instantiate a registered detector by name with keyword params.

    The registry indirection lets Spark workers rebuild detectors from
    plain ``(name, params)`` pairs shipped through ``applyInPandas``.
    """
    import repro.baselines  # noqa: F401  (fills the registry)
    try:
        cls = DETECTOR_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown detector {name!r}; known: {sorted(DETECTOR_REGISTRY)}")
    return cls(**params)
