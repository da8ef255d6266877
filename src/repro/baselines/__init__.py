"""The paper's 8 competitors (Table 2) behind ClaSS's detector interface.

:mod:`repro.methods` lists them, with ClaSS, in one table and builds
any of them by name.
"""
from __future__ import annotations

from repro.baselines.adwin import ADWIN
from repro.baselines.base import ErrorStream, StreamingDetector
from repro.baselines.bocd import BOCD
from repro.baselines.changefinder import ChangeFinder
from repro.baselines.ddm import DDM
from repro.baselines.floss import FLOSS
from repro.baselines.hddm import HDDM
from repro.baselines.newma import NEWMA
from repro.baselines.window import WindowSegmenter

__all__ = [
    "ADWIN", "BOCD", "ChangeFinder", "DDM", "ErrorStream", "FLOSS", "HDDM",
    "NEWMA", "StreamingDetector", "WindowSegmenter",
]
