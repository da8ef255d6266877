"""The nine methods of the paper, one record each, in Table 2's row order.

Each record holds everything the harnesses know about a method:

* Table 2: its per-update complexity class and segmentation principle;
* Table 3: its fixed parameters, the grid of its one tuned knob, and
  whether it gets the annotated subsequence width per series (FLOSS,
  Window and NEWMA: "subsequence widths were taken from the
  annotations"; ClaSS learns its own width via SuSS);
* Table 2's timed sweep: which of the settings in :func:`sweep_params`
  it takes.  A method without a window knob keeps its defaults.

:func:`make_detector` builds a method's detector from a
``(name, params)`` pair, which is how Spark workers rebuild detectors
shipped through ``applyInPandas``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import (ADWIN, BOCD, DDM, FLOSS, HDDM, NEWMA,
                             ChangeFinder, StreamingDetector, WindowSegmenter)
from repro.core.class_stream import ClaSS

__all__ = ["Method", "METHODS", "make_detector", "sweep_params"]


@dataclass(frozen=True)
class Method:
    """One method's settings; the comments name the table of each."""

    detector: type[StreamingDetector]
    update_complexity: str              # Table 2
    segmentation_method: str            # Table 2
    params: dict = field(default_factory=dict)   # Table 3: fixed
    grid: dict = field(default_factory=dict)     # Table 3: {knob: values}
    width: bool = False                 # Table 3: annotated w per series
    sweep: tuple[str, ...] = ()         # Table 2: keys of sweep_params


# ClaSS and FLOSS run at d=1000 in Table 3 (DESIGN.md S5: the paper's
# d=10k scaled by the pattern-size ratio, still covering 25..60 patterns).
METHODS: dict[str, Method] = {
    "bocd": Method(BOCD, "O(n)", "Bayesian probability",
                   params={"hazard": 1.0 / 500.0},
                   grid={"drop_threshold": [50, 150, 300]}),
    "floss": Method(FLOSS, "O(d log d)", "Matrix profile",
                    params={"d": 1000},
                    grid={"threshold": [0.25, 0.35, 0.45, 0.55, 0.65]},
                    width=True, sweep=("d", "w")),
    "class": Method(ClaSS, "O(d)", "Self-supervision",
                    params={"d": 1000},  # parameter-free by design
                    sweep=("d",)),       # SuSS learns w at every d
    "changefinder": Method(ChangeFinder, "O(c^2)", "Moving averages",
                           params={"r": 0.01},
                           grid={"threshold": [0.5, 1.0, 2.0, 5.0, 10.0]}),
    "window": Method(WindowSegmenter, "O(c)", "Autoregressive cost",
                     grid={"threshold": [0.1, 0.2, 0.3, 0.5]},
                     width=True, sweep=("w", "stride")),
    "newma": Method(NEWMA, "O(c)", "Moving averages",
                    grid={"quantile": [0.98, 0.99, 0.995, 1.0]},
                    width=True, sweep=("w",)),
    "adwin": Method(ADWIN, "O(log c)", "Adaptive Statistics",
                    grid={"delta": [0.002, 0.01, 0.05, 0.3]}),
    "ddm": Method(DDM, "O(1)", "Model error",
                  grid={"drift_level": [3.0, 5.0, 10.0, 20.0]}),
    "hddm": Method(HDDM, "O(1)", "Hoeffding's inequality",
                   grid={"drift_confidence": [1e-3, 1e-6, 1e-10, 1e-30,
                                              1e-60]}),
}


def sweep_params(name: str, d: int) -> dict:
    """Detector params of method ``name`` in Table 2's cell at window
    size ``d``: the window ``d`` itself, the width ``w = max(10, d//50)``
    and Window's paper-exact ``stride=1``, as far as the method takes
    them."""
    settings = {"d": d, "w": max(10, d // 50), "stride": 1}
    return {k: settings[k] for k in METHODS[name].sweep}


def make_detector(name: str, **params) -> StreamingDetector:
    """Build method ``name``'s detector with keyword ``params``."""
    try:
        cls = METHODS[name].detector
    except KeyError:
        raise ValueError(
            f"unknown detector {name!r}; known: {sorted(METHODS)}") from None
    return cls(**params)
