"""The paper's 8 competitors (Table 2) plus ClaSS behind one interface.

Importing this package fills :data:`repro.baselines.base.DETECTOR_REGISTRY`
so Spark workers can rebuild any detector from a ``(name, params)`` pair.
"""
from __future__ import annotations

from repro.baselines.adwin import ADWIN
from repro.baselines.base import (DETECTOR_REGISTRY, ErrorStream,
                                  StreamingDetector, make_detector)
from repro.baselines.bocd import BOCD
from repro.baselines.changefinder import ChangeFinder
from repro.baselines.ddm import DDM
from repro.baselines.floss import FLOSS
from repro.baselines.hddm import HDDM
from repro.baselines.newma import NEWMA
from repro.baselines.window import WindowSegmenter
# ClaSS registers itself as "class": its module imports this package, so
# it cannot be imported by name here.
import repro.core.class_stream  # noqa: F401

DETECTOR_REGISTRY.update({
    "floss": FLOSS,
    "window": WindowSegmenter,
    "changefinder": ChangeFinder,
    "newma": NEWMA,
    "bocd": BOCD,
    "ddm": DDM,
    "hddm": HDDM,
    "adwin": ADWIN,
})

__all__ = [
    "ADWIN", "BOCD", "ChangeFinder", "DDM",
    "DETECTOR_REGISTRY", "ErrorStream", "FLOSS", "HDDM", "NEWMA",
    "StreamingDetector", "WindowSegmenter", "make_detector",
]
