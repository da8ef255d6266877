"""Exact streaming k-nearest neighbours over sliding-window subsequences.

Implements Algorithm 2 of the ClaSS paper (Ermshaus et al., VLDB 2024):
an exact streaming TS k-NN under z-normalised Pearson correlation that
costs ``O(k * d)`` per arriving data point, via STOMP-style incremental
dot products (paper Eqns. 1-5).

Coordinates
-----------
The sliding window holds the latest ``L <= d`` points.  Width-``w``
subsequences start at window offsets ``0 .. L - w`` (``m = L - w + 1`` of
them).  Neighbour identities are stored as *absolute* stream positions of
the subsequence start, so no per-step renumbering of stored rows is
needed; :meth:`StreamingKNN.relative_offsets` converts them to
window-relative subsequence indices (negative for egressed neighbours,
which the ClaSS scorer treats as class 0 — paper Section 3.1, "k-NN
Shift").

The per-update invariant (verified exhaustively in the tests): as long
as no point has egressed, row ``j`` holds the exact top-``k`` neighbours
of subsequence ``j`` among *all* subsequences ``i`` with
``|i - j| > exclusion`` — at insertion time the row receives the best
older candidates, and every younger subsequence that beats the row's
worst stored neighbour is folded in by the "k-NN Update" step.
"""
from __future__ import annotations

import numpy as np

__all__ = ["StreamingKNN", "batch_knn", "pairwise_pearson"]

# A subsequence pair closer than this many offsets is a trivial match and
# never a neighbour.  The paper excludes "the last 3/2 * w observations"
# when searching neighbours for the newest subsequence, which is a start-
# offset gap of w/2 — the classic matrix-profile exclusion zone.
def _exclusion(w: int) -> int:
    return max(1, w // 2)


def _safe_pearson(q: np.ndarray, w: int, mu: np.ndarray, sig: np.ndarray,
                  mu_q: float, sig_q: float) -> np.ndarray:
    """Pearson correlation from dot products (paper Eqn. 4), guarding
    zero-variance (flat) subsequences: flat-vs-flat correlates 1, flat
    vs non-flat correlates 0."""
    flat = sig < 1e-12
    q_flat = sig_q < 1e-12
    denom = w * sig * (sig_q if not q_flat else 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (q - w * mu * mu_q) / np.where(denom == 0, 1.0, denom)
    if q_flat:
        c = np.where(flat, 1.0, 0.0)
    else:
        c = np.where(flat, 0.0, c)
    return np.clip(c, -1.0, 1.0)


class StreamingKNN:
    """Streaming k-NN over all width-``w`` subsequences of a size-``d``
    sliding window (paper Algorithm 2).

    Parameters
    ----------
    d:
        Sliding-window capacity in data points.
    w:
        Subsequence width.
    k:
        Number of neighbours per subsequence (paper default 3).

    Attributes
    ----------
    C : (m, k) float64
        Correlations of each stored neighbour, descending per row.
    N : (m, k) int64
        Absolute stream start positions of each neighbour;
        ``_UNSET`` (< 0 sentinel far below any real position) while a
        row has fewer than ``k`` neighbours.
    """

    _UNSET = np.iinfo(np.int64).min // 2

    def __init__(self, d: int, w: int, k: int = 3) -> None:
        if w < 3:
            raise ValueError(f"subsequence width must be >= 3, got {w}")
        if d < 2 * w:
            raise ValueError(f"window size d={d} must be >= 2*w={2 * w}")
        self.d, self.w, self.k = d, w, k
        self.excl = _exclusion(w)
        self.win = np.empty(0, dtype=np.float64)
        # Q[i] between updates: dot(win[i+1:i+w], win[L-w+1:L]) — the
        # (w-1)-length dot products ready for the next iteration
        # (paper Eqns. 3/5).
        self._q = np.empty(0, dtype=np.float64)
        self.C = np.empty((0, k), dtype=np.float64)
        self.N = np.empty((0, k), dtype=np.int64)
        self.pos = 0          # absolute position of the *next* point
        self.start_abs = 0    # absolute position of win[0]

    # ------------------------------------------------------------------
    @property
    def n_subseqs(self) -> int:
        """Number of subsequences currently in the window."""
        return max(0, len(self.win) - self.w + 1)

    def relative_offsets(self) -> np.ndarray:
        """Neighbour positions as window-relative subsequence indices.

        Egressed neighbours come out negative; unset slots come out as a
        very negative sentinel.  Both are class 0 for the scorer.
        """
        return self.N - self.start_abs

    # ------------------------------------------------------------------
    def update(self, x: float) -> np.ndarray | None:
        """Ingress one data point; O(k*d) (paper Section 3.6).

        Returns the Pearson correlations between the newest subsequence
        and every subsequence in the window (or ``None`` while the
        window holds fewer than ``w`` points) — FLOSS reuses this vector
        for its right-constrained 1-NN arcs.
        """
        w, k = self.w, self.k
        at_capacity = len(self.win) == self.d
        if at_capacity:
            self.win = np.append(self.win[1:], x)
            self.start_abs += 1
        else:
            self.win = np.append(self.win, x)
        self.pos += 1
        L = len(self.win)
        if L < w:
            return None
        m = L - w + 1

        # --- dot products (paper Alg. 2 lines 5-10, Eqns. 3/5) --------
        if not at_capacity:
            # A new leftmost slot appears while the window grows; its
            # (w-1)-dot with the newest subsequence's first w-1 points
            # is computed directly in O(w) (paper line 6).
            fresh = float(self.win[0:w - 1] @ self.win[L - w:L - 1])
            self._q = np.concatenate(([fresh], self._q))
        # else: slots keep their post-subtract values; alignment shown in
        # the module docstring derivation.
        q_full = self._q + self.win[w - 1:L] * x  # Eqn. 3: w-length dots

        # --- means / stds via running sums (Eqns. 1-2) ----------------
        csum = np.concatenate(([0.0], np.cumsum(self.win)))
        csum2 = np.concatenate(([0.0], np.cumsum(self.win * self.win)))
        mu = (csum[w:] - csum[:-w]) / w
        var = (csum2[w:] - csum2[:-w]) / w - mu * mu
        sig = np.sqrt(np.maximum(var, 0.0))

        corr = _safe_pearson(q_full, w, mu, sig, mu[m - 1], sig[m - 1])

        # Eqn. 5: restore (w-1)-length dots for the next update.
        self._q = q_full - self.win[0:m] * self.win[L - w]

        # --- rows for subsequences (shift + insert, lines 21-24) ------
        if at_capacity:
            self.C = np.vstack([self.C[1:], np.full(k, -np.inf)])
            self.N = np.vstack([self.N[1:], np.full(k, self._UNSET)])
        else:
            self.C = np.vstack([self.C, np.full(k, -np.inf)])
            self.N = np.vstack([self.N, np.full(k, self._UNSET)])
        new_abs = self.start_abs + m - 1  # newest subsequence, absolute

        # (a) k-NN of the newest subsequence among non-trivial older ones.
        n_cand = m - 1 - self.excl
        if n_cand >= 1:
            cand = corr[:n_cand]
            top = min(k, n_cand)
            sel = np.argpartition(-cand, top - 1)[:top]
            sel = sel[np.argsort(-cand[sel], kind="stable")]
            self.C[-1, :top] = cand[sel]
            self.N[-1, :top] = sel + self.start_abs

        # (c) older rows adopt the newest subsequence when it beats
        # their worst stored neighbour (paper lines 23-24).
        if m >= 2:
            old = slice(0, m - 1)
            gap_ok = np.arange(m - 1) < m - 1 - self.excl
            better = (corr[:m - 1] > self.C[old, k - 1]) & gap_ok
            rows = np.nonzero(better)[0]
            if rows.size:
                cvals = corr[rows]
                # insertion position: number of stored corrs >= new one
                ins = (self.C[rows] >= cvals[:, None]).sum(axis=1)
                for col in range(k - 1, 0, -1):
                    mv = ins <= col - 1
                    self.C[rows[mv], col] = self.C[rows[mv], col - 1]
                    self.N[rows[mv], col] = self.N[rows[mv], col - 1]
                self.C[rows, ins] = cvals
                self.N[rows, ins] = new_abs
        return corr


# ----------------------------------------------------------------------
# Batch references (test oracles)
# ----------------------------------------------------------------------
def pairwise_pearson(T: np.ndarray, w: int) -> np.ndarray:
    """All-pairs z-normalised Pearson correlations between width-``w``
    subsequences of ``T`` — O(m^2 * w) reference used only by tests."""
    m = len(T) - w + 1
    subs = np.lib.stride_tricks.sliding_window_view(T, w)
    mu = subs.mean(axis=1)
    sig = subs.std(axis=1)
    out = np.empty((m, m))
    for i in range(m):
        q = subs @ subs[i]
        out[i] = _safe_pearson(q, w, mu, sig, mu[i], sig[i])
    return out


def batch_knn(T: np.ndarray, w: int, k: int = 3):
    """Exact top-k neighbours with the same exclusion rule as
    :class:`StreamingKNN` — the oracle for the no-egress invariant."""
    m = len(T) - w + 1
    excl = _exclusion(w)
    corr = pairwise_pearson(T, w)
    C = np.full((m, k), -np.inf)
    N = np.full((m, k), StreamingKNN._UNSET, dtype=np.int64)
    for j in range(m):
        cand = np.nonzero(np.abs(np.arange(m) - j) > excl)[0]
        if cand.size == 0:
            continue
        vals = corr[j, cand]
        top = min(k, cand.size)
        sel = np.argpartition(-vals, top - 1)[:top]
        sel = sel[np.argsort(-vals[sel], kind="stable")]
        C[j, :top] = vals[sel]
        N[j, :top] = cand[sel]
    return C, N
