"""Subsequence width selection (paper Section 3.4).

ClaSS learns the subsequence width ``w`` from the first ``d`` stream
observations with SuSS (Summary Statistics Subsequence, Ermshaus et al.
2023): the smallest window size whose local summary statistics (mean,
std, min-max range) are sufficiently close to the global statistics of
the sample, found by exponential + binary search — expected
``O(n log w)``.
"""
from __future__ import annotations

import numpy as np

from repro.core.streaming_knn import rolling_mean_std

__all__ = ["suss"]

# A width is accepted once its normalised score drops to this fraction.
THRESHOLD = 0.89


def _suss_score(ts: np.ndarray, w: int, global_stats) -> float:
    """Mean distance between per-window summary stats and the global
    stats, normalised by sqrt(w) (larger windows concentrate)."""
    roll = np.lib.stride_tricks.sliding_window_view(ts, w)
    g_mean, g_std, g_rng = global_stats
    mu, sig = rolling_mean_std(ts, w)
    d_mean = mu - g_mean
    d_std = sig - g_std
    d_rng = (roll.max(axis=1) - roll.min(axis=1)) - g_rng
    dist = np.sqrt(d_mean**2 + d_std**2 + d_rng**2) / np.sqrt(w)
    return float(dist.mean())


def suss(ts: np.ndarray, lbound: int = 10, ubound: int | None = None) -> int:
    """Smallest ``w`` whose normalised SuSS score drops to
    ``THRESHOLD`` of the ``w=1`` score, via exponential then binary
    search over the (empirically monotone) score curve."""
    ts = np.asarray(ts, dtype=np.float64)
    n = len(ts)
    ubound = min(ubound or n // 4, n - 1)
    if ubound <= lbound:
        return max(3, min(lbound, n // 2))
    rng_val = ts.max() - ts.min()
    if rng_val < 1e-12:
        return lbound
    ts = (ts - ts.min()) / rng_val
    stats = (float(ts.mean()), float(ts.std()), float(ts.max() - ts.min()))
    max_score = _suss_score(ts, 1, stats)
    min_score = _suss_score(ts, ubound, stats)
    span = max_score - min_score
    if span < 1e-12:
        return lbound

    def norm_score(w: int) -> float:
        return (_suss_score(ts, w, stats) - min_score) / span

    # exponential search for the first power of two below threshold
    lo, hi = lbound, lbound
    while hi < ubound and norm_score(hi) > THRESHOLD:
        lo, hi = hi, min(hi * 2, ubound)
    # binary search in (lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if norm_score(mid) > THRESHOLD:
            lo = mid + 1
        else:
            hi = mid
    return max(3, lo)
