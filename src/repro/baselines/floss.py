"""FLOSS — Fast Low-cost Online Semantic Segmentation (Gharghabi et al.).

The strongest data-mining competitor in the paper (Table 2: matrix
profile, O(d log d) update — ours is O(d) because it shares ClaSS's
streaming k-NN).  FLOSS maintains, over the sliding window, each
subsequence's *right*-constrained 1-nearest neighbour (arcs only point
forward in time so egressing data cannot invalidate them).  These are
the rows of a ``k = 1`` :class:`~repro.core.streaming_knn.StreamingKNN`
fed by ``slide`` + ``adopt`` only: a row never receives older
neighbours, only younger subsequences outside the exclusion zone that
strictly beat its stored one.  FLOSS counts how many arcs cross every
window position (the arc curve), and normalises by the expected
crossings of temporally random arcs (the corrected arc curve, CAC).  A
valley of the CAC below a learned threshold (paper: 0.45) is reported as
a change point, with an exclusion zone to suppress series of nearby
reports.

The idealised arc curve for *one-directional* arcs is computed exactly
under the uniform-random-arc model: with ``m`` subsequences, an arc
starts at ``j ~ U{0..m-1}`` and ends uniformly in ``j+1..m-1``, giving

    IAC(i) = (m - i) * (H_{m-1} - H_{m-1-i})        (H = harmonic numbers)

crossings expected at boundary ``i`` — evaluated in O(m) via cumulative
harmonic sums.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.base import StreamingDetector
from repro.core.streaming_knn import StreamingKNN

__all__ = ["FLOSS", "ideal_arc_curve_1d"]

# Exclusion zone around reported CPs and window borders, in subsequence
# widths (prevents "series of closely located splits", paper Section 4.1).
EXCL_FACTOR = 5
# A valley must stay below threshold at a stable location for PATIENCE
# consecutive points before it is reported — filters the transient dips
# of the (noisy, per paper 4.5) arc curve.
PATIENCE = 10


def ideal_arc_curve_1d(m: int) -> np.ndarray:
    """Expected crossings of ``m`` uniform right-directed arcs at every
    boundary ``i`` (crossing means ``j < i <= nn_j``)."""
    if m < 2:
        return np.ones(max(m, 0))
    harm = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, m))))  # H_0..H_{m-1}
    i = np.arange(m)
    iac = (m - i) * (harm[m - 1] - harm[np.maximum(m - 1 - i, 0)])
    return np.maximum(iac, 1e-9)


class FLOSS(StreamingDetector):
    """Streaming FLOSS with threshold-based CP extraction.

    Parameters
    ----------
    d: sliding window size (paper: 10k; scaled with the corpus).
    w: subsequence width (the paper takes it "from the annotations").
    threshold: CAC valley threshold (paper-tuned 0.45).
    """

    def __init__(self, d: int = 10_000, w: int = 100,
                 threshold: float = 0.45) -> None:
        super().__init__()
        self.d, self.w = d, w
        self.threshold = threshold
        self.excl = EXCL_FACTOR * w
        self._streak = 0
        self._streak_pos = -10**18
        # Row j holds subsequence j's right-constrained 1-NN: its
        # absolute position (``_UNSET`` < 0 while none) and correlation.
        self._knn = StreamingKNN(d, w, k=1)
        self._last_cp = -10**18

    def _step(self, x: float) -> int | None:
        knn = self._knn
        corr = knn.slide(x)
        if corr is None:
            return None
        knn.adopt(corr)
        m = knn.n_subseqs

        if m < max(2 * self.excl, 3 * self.w):
            return None
        # A (near-)constant window has no meaningful arcs: every flat
        # subsequence correlates 1.0 with every other, so the arc
        # structure is an artefact of tie-breaking.
        if float(np.std(knn.win)) < 1e-9:
            return None
        # Arc curve: arc (j -> r) crosses boundaries j < i <= r.
        rel = knn.N[:, 0] - knn.start_abs
        src = np.nonzero(rel >= 0)[0]
        if src.size == 0:
            return None
        delta = np.zeros(m + 1)
        np.add.at(delta, src + 1, 1.0)
        np.add.at(delta, np.minimum(rel[src] + 1, m), -1.0)
        ac = np.cumsum(delta)[:m]
        cac = np.minimum(ac / ideal_arc_curve_1d(m), 1.0)

        lo = self.excl
        hi = m - self.excl
        if hi <= lo:
            return None
        seg = cac[lo:hi]
        i_min = lo + int(np.argmin(seg))
        cp_abs = knn.start_abs + i_min + self.w - 1
        if cac[i_min] >= self.threshold:
            self._streak = 0
            return None
        if abs(cp_abs - self._streak_pos) <= self.w:
            self._streak += 1
        else:
            self._streak = 1
        self._streak_pos = cp_abs
        if self._streak < PATIENCE:
            return None
        if cp_abs - self._last_cp <= self.excl:
            return None
        self._last_cp = cp_abs
        return cp_abs
