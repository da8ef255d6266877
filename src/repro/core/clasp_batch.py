"""Batch ClaSP reference (paper Section 2.2, Definition 6).

A direct, offline computation of the Classification Score Profile for a
finite time series: exact k-NN over all subsequences (with the same
trivial-match exclusion as the streaming variant) and a per-split
cross-validation of the self-supervised k-NN classifier.

This is the O(n^2) algorithm ClaSS improves upon; here it serves as an
independent end-to-end oracle: on a window that never slid, the profile
assembled from :class:`~repro.core.streaming_knn.StreamingKNN` state
must equal the profile computed from scratch by this module.  It is also
usable directly for small batch segmentation tasks (paper Section 6
notes ClaSS subsumes this use case for long series).
"""
from __future__ import annotations

import numpy as np

from repro.core.scoring import cross_val_scores_naive
from repro.core.streaming_knn import batch_knn

__all__ = ["clasp_profile"]


def clasp_profile(ts: np.ndarray, w: int, k: int = 3) -> np.ndarray:
    """ClaSP over all splits of ``ts``: entry ``i`` scores the split
    with ``i + 1`` subsequences on the left (class 0)."""
    ts = np.asarray(ts, dtype=np.float64)
    _, N = batch_knn(ts, w, k)
    return cross_val_scores_naive(N)
