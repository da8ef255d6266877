"""The synthetic evaluation corpus (DESIGN.md substitution S1).

Mirrors the *structure* of the paper's Table 1 at container scale: two
"benchmark" collections (TSSB-lite, UTSA-lite — shorter, cleaner,
diverse) and six "archive" collections (longer, noisier, more segments,
with anomaly contamination and baseline drift — the paper's "by far the
harder scenario").  Every series records its ground-truth change points
and an annotated pattern period (the paper's competitors take their
subsequence width "from the annotations").

Everything is deterministic in ``seed``.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.datasets.generators import (FAMILIES, Regime, distinct_regime,
                                       gen_segment, sample_regime)

__all__ = ["TSRecord", "CollectionSpec", "COLLECTIONS", "make_corpus",
           "corpus_to_spark", "table1_stats"]


@dataclass
class TSRecord:
    """One annotated series of the corpus."""

    collection: str      # "benchmark" | "archive"
    dataset: str         # e.g. "tssb-lite"
    series_id: str
    values: np.ndarray
    change_points: list[int]
    period: int          # annotated dominant pattern period

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def n_segments(self) -> int:
        return len(self.change_points) + 1


@dataclass(frozen=True)
class CollectionSpec:
    dataset: str
    collection: str
    n_series: int
    length_range: tuple[int, int]
    segments_range: tuple[int, int]
    noise_range: tuple[float, float]
    families: tuple[str, ...] = FAMILIES
    contaminate: bool = False  # archive-style anomalies + drift


# Paper Table 1 analogue, scaled to the container (S1/S5 in DESIGN.md).
COLLECTIONS: tuple[CollectionSpec, ...] = (
    CollectionSpec("tssb-lite", "benchmark", 25, (2000, 5000), (1, 5),
                   (0.05, 0.15)),
    CollectionSpec("utsa-lite", "benchmark", 10, (3000, 6000), (2, 3),
                   (0.05, 0.15)),
    CollectionSpec("mhealth-lite", "archive", 8, (6000, 8000), (12, 12),
                   (0.15, 0.3), ("sine", "triangle", "square", "noise"), True),
    CollectionSpec("pamap-lite", "archive", 8, (7000, 9000), (9, 9),
                   (0.15, 0.3), ("sine", "sawtooth", "triangle", "noise"), True),
    CollectionSpec("wesad-lite", "archive", 6, (6000, 9000), (5, 5),
                   (0.15, 0.3), ("sine", "ar1", "noise"), True),
    CollectionSpec("sleep-lite", "archive", 8, (8000, 12000), (8, 12),
                   (0.2, 0.35), ("ar1", "sine", "noise"), True),
    CollectionSpec("arr-lite", "archive", 8, (6000, 10000), (2, 10),
                   (0.1, 0.25), ("pulse", "sine", "triangle"), True),
    CollectionSpec("ve-lite", "archive", 6, (6000, 10000), (2, 8),
                   (0.1, 0.25), ("pulse", "sine", "noise"), True),
)

_MIN_SEGMENT = 700  # points; keeps every CP resolvable at d=1000


def _make_series(spec: CollectionSpec, idx: int,
                 rng: np.random.Generator) -> TSRecord:
    n = int(rng.integers(*spec.length_range))
    n_segs = int(rng.integers(spec.segments_range[0],
                              spec.segments_range[1] + 1))
    max_segs = max(1, n // _MIN_SEGMENT)
    n_segs = min(n_segs, max_segs)
    # Segment lengths: a guaranteed floor plus a random share of the
    # remainder (rounding slack goes to the last segment).
    raw = rng.uniform(1.0, 2.5, n_segs)
    extra = n - n_segs * _MIN_SEGMENT
    lens = _MIN_SEGMENT + (raw / raw.sum() * extra).astype(int)
    lens[-1] += n - lens.sum()
    noise = float(rng.uniform(*spec.noise_range))
    regime = sample_regime(rng, spec.families)
    parts, cps, periods = [], [], []
    for s_i, ln in enumerate(lens):
        if s_i > 0:
            regime = distinct_regime(regime, rng, spec.families)
            cps.append(int(sum(lens[:s_i])))
        parts.append(gen_segment(regime, int(ln), rng, noise))
        periods.append(regime.period)
    x = np.concatenate(parts)
    if spec.contaminate:
        # Archive realism: slow baseline drift + sparse anomaly spikes.
        drift = np.cumsum(rng.standard_normal(n)) * 0.003
        x = x + drift
        n_anom = max(1, n // 2000)
        pos = rng.integers(0, n, n_anom)
        x[pos] += rng.choice([-1, 1], n_anom) * rng.uniform(3, 6, n_anom)
    return TSRecord(spec.collection, spec.dataset, f"{spec.dataset}-{idx:03d}",
                    x, cps, int(np.median(periods)))


def make_corpus(seed: int = 0,
                collections: tuple[CollectionSpec, ...] = COLLECTIONS
                ) -> list[TSRecord]:
    """The full deterministic corpus (79 series by default)."""
    out: list[TSRecord] = []
    for spec in collections:
        for i in range(spec.n_series):
            # zlib.crc32 is a stable hash — Python's hash() is salted
            # per process, which would break determinism across Spark
            # workers and reruns.
            key = zlib.crc32(f"{seed}/{spec.dataset}/{i}".encode())
            rng = np.random.default_rng(key)
            out.append(_make_series(spec, i, rng))
    return out


# ----------------------------------------------------------------------
# Frame conversions
# ----------------------------------------------------------------------
_CORPUS_SCHEMA = ("collection string, dataset string, series_id string, "
                  "n long, slot int, values array<double>")


def corpus_to_spark(spark, records: list[TSRecord]):
    """The corpus as a Spark DataFrame, one row per series.

    Columns: ``collection``, ``dataset``, ``series_id``, ``n`` (the
    series length), ``slot`` (the series' rank by length, longest first;
    ties keep input order) and ``values`` (``array<double>``).  Row
    ``slot`` is placed in partition ``slot`` of ``len(records)``, so each
    series is one task, and Spark's local scheduler, which starts tasks
    in partition order, starts the longest series first (the LPT rule).
    """
    order = sorted(range(len(records)), key=lambda i: -records[i].n)
    slot = np.empty(len(records), dtype=np.int32)
    slot[order] = np.arange(len(records), dtype=np.int32)
    pdf = pd.DataFrame({
        "collection": [r.collection for r in records],
        "dataset": [r.dataset for r in records],
        "series_id": [r.series_id for r in records],
        "n": [r.n for r in records],
        "slot": slot,
        "values": [r.values for r in records],
    })
    df = spark.createDataFrame(pdf, _CORPUS_SCHEMA)
    return df.repartitionById(len(records), "slot")


def table1_stats(records: list[TSRecord]) -> pd.DataFrame:
    """Per-dataset statistics in the shape of the paper's Table 1."""
    rows = []
    by_ds: dict[str, list[TSRecord]] = {}
    for r in records:
        by_ds.setdefault(r.dataset, []).append(r)
    for ds, recs in by_ds.items():
        lens = np.array([r.n for r in recs])
        segs = np.array([r.n_segments for r in recs])
        rows.append({
            "dataset": ds,
            "collection": recs[0].collection,
            "n_ts": len(recs),
            "len_min": int(lens.min()),
            "len_median": int(np.median(lens)),
            "len_max": int(lens.max()),
            "segs_min": int(segs.min()),
            "segs_median": int(np.median(segs)),
            "segs_max": int(segs.max()),
        })
    return pd.DataFrame(rows).sort_values("dataset").reset_index(drop=True)
