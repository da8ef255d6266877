"""Covering — the paper's segmentation quality measure (Section 4.1).

    Covering = 1/|T| * sum over true segments s of
               |s| * max over predicted segments s' of Jaccard(s, s')

A segmentation is the partition of ``[0, n)`` induced by a sorted list
of change points; by the paper's convention position 0 is always the
first CP and ``n`` closes the last segment, so an empty prediction is
one big segment (and still scores its overlap).  Scores lie in [0, 1],
higher is better.
"""
from __future__ import annotations

from collections.abc import Sequence

__all__ = ["segments_from_cps", "covering"]


def segments_from_cps(cps: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Half-open segments ``[(s, e), ...)`` induced by change points.

    CPs are clipped to ``(0, n)``, deduplicated and sorted; out-of-range
    or duplicate CPs therefore cannot crash the metric (predictions come
    from nine different detectors).
    """
    inner = sorted({int(c) for c in cps if 0 < int(c) < n})
    bounds = [0, *inner, n]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def covering(true_cps: Sequence[int], pred_cps: Sequence[int], n: int) -> float:
    """Weighted best-Jaccard overlap of true vs predicted segments."""
    if n <= 0:
        raise ValueError("series length must be positive")
    true_segs = segments_from_cps(true_cps, n)
    pred_segs = segments_from_cps(pred_cps, n)
    total = 0.0
    for ts, te in true_segs:
        best = 0.0
        for ps, pe in pred_segs:
            inter = min(te, pe) - max(ts, ps)
            if inter <= 0:
                continue
            union = max(te, pe) - min(ts, ps)
            best = max(best, inter / union)
        total += (te - ts) * best
    return total / n
