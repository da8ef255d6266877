"""Exact streaming k-nearest neighbours over sliding-window subsequences.

Implements Algorithm 2 of the ClaSS paper (Ermshaus et al., VLDB 2024):
an exact streaming TS k-NN under z-normalised Pearson correlation that
costs ``O(k * d)`` per arriving data point, via STOMP-style incremental
dot products (paper Eqns. 1-5).

``update`` is :meth:`~StreamingKNN.slide` (the window shift, the newest
subsequence's statistics, dot products and correlations, and an empty
row for it), the newest row's own neighbour search, and
:meth:`~StreamingKNN.adopt` (the "k-NN Update").  No other module knows
how the window shifts: FLOSS runs ``slide`` + ``adopt`` at ``k = 1``,
so its rows are right-constrained 1-NN arcs.

Coordinates
-----------
The sliding window holds the latest ``L <= d`` points.  Width-``w``
subsequences start at window offsets ``0 .. L - w`` (``m = L - w + 1`` of
them).  Neighbour identities are stored as *absolute* stream positions of
the subsequence start, so no per-step renumbering of stored rows is
needed; ``N - start_abs`` gives window-relative subsequence indices
(negative for egressed neighbours, very negative for unset slots; the
ClaSS scorer treats both as class 0 — paper Section 3.1, "k-NN
Shift").

Buffer layout
-------------
Nothing is reallocated per point.  The window points, the per-
subsequence mean and standard deviation, and the k-NN rows ``C``/``N``
live in preallocated buffers of ``2 d`` slots that share one offset:
window point ``i`` and the subsequence starting at it both sit at slot
``offset + i``.  When the window is full, each point advances the offset
by one (the oldest point and subsequence egress) and writes the new
point and row at the end; once the end of the buffers is reached, the
live part is copied back to slot 0, once every ``d + 1`` points.  The
(w-1)-length dot products ``_q`` sit right-aligned in a buffer of
``d - w + 1`` slots, because a growing window prepends one slot per
point and a full one keeps its slots in place.  The public arrays
(``win``, ``C``, ``N``, ``mu``, ``sig``) are views derived from the
buffers when read; pickling keeps only the live window, ``_q`` and rows,
and rebuilds the slack and the statistics on load.

The mean and standard deviation of a subsequence (paper Eqns. 1-2) are
computed once, from its own ``w`` values, when it enters the window, and
then only move with it.  They equal ``np.mean``/``np.std`` of the
subsequence bit for bit, so a restored instance recomputes the same
values.

The per-update invariant (verified exhaustively in the tests): as long
as no point has egressed, row ``j`` holds the exact top-``k`` neighbours
of subsequence ``j`` among *all* subsequences ``i`` with
``|i - j| > exclusion`` — at insertion time the row receives the best
older candidates, and every younger subsequence that beats the row's
worst stored neighbour is folded in by the "k-NN Update" step.  With
``slide`` + ``adopt`` alone, row ``j`` holds the top-``k`` among the
subsequences ``i > j + exclusion`` seen so far, before and after
egress, since those never egress before ``j``.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["StreamingKNN", "batch_knn", "pairwise_pearson",
           "rolling_mean_std"]

# A subsequence pair closer than this many offsets is a trivial match and
# never a neighbour.  The paper excludes "the last 3/2 * w observations"
# when searching neighbours for the newest subsequence, which is a start-
# offset gap of w/2 — the classic matrix-profile exclusion zone.
def _exclusion(w: int) -> int:
    return max(1, w // 2)


# Elements per block of rows in ``rolling_mean_std``.
_STATS_BLOCK = 1 << 16


def _mean_std(subs: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of each row of ``subs`` (``(n, w)``),
    computed as ``np.mean``/``np.std`` compute them, so every row gets
    the same bits whether it is computed alone or in a batch."""
    mu = np.add.reduce(subs, axis=1) / w
    dev = subs - mu[:, None]
    dev *= dev
    return mu, np.sqrt(np.add.reduce(dev, axis=1) / w)


def rolling_mean_std(x: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of every width-``w`` subsequence of
    ``x``, bit for bit ``np.mean``/``np.std`` of each.  Computed in
    blocks of rows, so the ``(rows, w)`` deviation temporary stays near
    ``_STATS_BLOCK`` elements instead of ``len(x) * w``."""
    m = max(0, len(x) - w + 1)
    mu, sig = np.empty(m), np.empty(m)
    step = max(1, _STATS_BLOCK // w)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        mu[lo:hi], sig[lo:hi] = _mean_std(
            sliding_window_view(x[lo:hi + w - 1], w), w)
    return mu, sig


def _safe_pearson(q: np.ndarray, w: int, mu: np.ndarray, sig: np.ndarray,
                  mu_q: float, sig_q: float) -> np.ndarray:
    """Pearson correlation from dot products (paper Eqn. 4), guarding
    zero-variance (flat) subsequences: flat-vs-flat correlates 1, flat
    vs non-flat correlates 0."""
    flat = sig < 1e-12
    if sig_q < 1e-12:
        return flat.astype(np.float64)
    c = w * mu
    c *= mu_q
    np.subtract(q, c, out=c)
    denom = w * sig
    denom *= sig_q
    if flat.any():
        denom[flat] = 1.0
        c /= denom
        c[flat] = 0.0
    else:
        c /= denom
    np.maximum(c, -1.0, out=c)   # clip to [-1, 1]
    return np.minimum(c, 1.0, out=c)


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
    win : (L,) float64
        The window's points, oldest first.
    C : (m, k) float64
        Correlations of each stored neighbour, descending per row.
    N : (m, k) int64
        Absolute stream start positions of each neighbour;
        ``_UNSET`` (< 0 sentinel far below any real position) while a
        row has fewer than ``k`` neighbours.
    mu, sig : (m,) float64
        Mean and standard deviation of each subsequence.
    """

    _UNSET = np.iinfo(np.int64).min // 2

    def __init__(self, d: int, w: int, k: int = 3) -> None:
        if w < 3:
            raise ValueError(f"subsequence width must be >= 3, got {w}")
        if d < 2 * w:
            raise ValueError(f"window size d={d} must be >= 2*w={2 * w}")
        self.d, self.w, self.k = d, w, k
        self.excl = _exclusion(w)
        self.pos = 0          # absolute position of the *next* point
        self.start_abs = 0    # absolute position of win[0]
        self._off = 0         # buffer slot of win[0] and of row 0
        self._buf = np.empty(2 * d)
        self._mu = np.empty(2 * d)
        self._sig = np.empty(2 * d)
        self._C = np.empty((2 * d, k))
        self._N = np.empty((2 * d, k), dtype=np.int64)
        # Right-aligned: _q[i] between updates is
        # dot(win[i+1:i+w], win[L-w+1:L]), the (w-1)-length dot products
        # ready for the next iteration (paper Eqns. 3/5).
        self._qbuf = np.empty(d - w + 1)

    # ------------------------------------------------------------------
    @property
    def n_subseqs(self) -> int:
        """Number of subsequences currently in the window."""
        return max(0, self.pos - self.start_abs - self.w + 1)

    def _rows(self, buf: np.ndarray) -> np.ndarray:
        return buf[self._off:self._off + self.n_subseqs]

    @property
    def win(self) -> np.ndarray:
        return self._buf[self._off:self._off + self.pos - self.start_abs]

    @property
    def C(self) -> np.ndarray:
        return self._rows(self._C)

    @property
    def N(self) -> np.ndarray:
        return self._rows(self._N)

    @property
    def mu(self) -> np.ndarray:
        return self._rows(self._mu)

    @property
    def sig(self) -> np.ndarray:
        return self._rows(self._sig)

    @property
    def _q(self) -> np.ndarray:
        return self._qbuf[len(self._qbuf) - self.n_subseqs:]

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Views pickle their own elements only: the slack stays behind.
        return {"d": self.d, "w": self.w, "k": self.k, "pos": self.pos,
                "start_abs": self.start_abs, "win": self.win,
                "q": self._q, "C": self.C, "N": self.N}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["d"], state["w"], state["k"])
        self.pos, self.start_abs = state["pos"], state["start_abs"]
        win = state["win"]
        m = self.n_subseqs
        self._buf[:len(win)] = win
        self._qbuf[len(self._qbuf) - m:] = state["q"]
        self._C[:m], self._N[:m] = state["C"], state["N"]
        self._mu[:m], self._sig[:m] = rolling_mean_std(win, self.w)

    def _compact(self) -> None:
        """Copy the live points and rows back to slot 0."""
        off, n = self._off, self.d - 1
        for buf in (self._buf, self._mu, self._sig, self._C, self._N):
            buf[:n] = buf[off:off + n]
        self._off = 0

    # ------------------------------------------------------------------
    def slide(self, x: float) -> np.ndarray | None:
        """Ingress one data point, leaving the older rows alone; O(d).

        The newest subsequence gets an empty row (``-inf`` / ``_UNSET``).
        Returns its Pearson correlations with every subsequence in the
        window, or ``None`` while the window holds fewer than ``w``
        points.
        """
        w, d = self.w, self.d
        L = self.pos - self.start_abs
        at_capacity = L == d
        if at_capacity:
            # The oldest point and its subsequence egress.
            self.start_abs += 1
            self._off += 1
            if self._off + d > len(self._buf):
                self._compact()
        else:
            L += 1
        self.pos += 1
        off = self._off
        self._buf[off + L - 1] = x
        if L < w:
            return None
        win = self._buf[off:off + L]
        m = L - w + 1
        new = off + m - 1     # buffer row of the newest subsequence

        # --- stats of the newest subsequence (Eqns. 1-2) --------------
        mu_q, sig_q = _mean_std(win[None, L - w:], w)
        self._mu[new], self._sig[new] = mu_q[0], sig_q[0]

        # --- dot products (paper Alg. 2 lines 5-10, Eqns. 3/5) --------
        q = self._qbuf[len(self._qbuf) - m:]
        if not at_capacity:
            # A new leftmost slot appears while the window grows; its
            # (w-1)-dot with the newest subsequence's first w-1 points
            # is computed directly in O(w) (paper line 6).
            q[0] = win[0:w - 1] @ win[L - w:L - 1]
        q_full = win[w - 1:L] * x
        q_full += q                          # Eqn. 3: w-length dots
        corr = _safe_pearson(q_full, w, self._mu[off:new + 1],
                             self._sig[off:new + 1], mu_q[0], sig_q[0])
        # Eqn. 5: restore (w-1)-length dots for the next update.
        np.multiply(win[0:m], win[L - w], out=q)
        np.subtract(q_full, q, out=q)

        self._C[new] = -np.inf
        self._N[new] = self._UNSET
        return corr

    def adopt(self, corr: np.ndarray) -> None:
        """The "k-NN Update" step (paper Alg. 2 lines 23-24): every older
        row outside the newest subsequence's exclusion zone takes the
        newest subsequence when ``corr`` (as returned by :meth:`slide`)
        strictly beats the row's worst stored neighbour."""
        k, off = self.k, self._off
        n_cand = self.n_subseqs - 1 - self.excl
        if n_cand < 1:
            return
        cand = corr[:n_cand]
        Cr, Nr = self._C[off:off + n_cand], self._N[off:off + n_cand]
        rows = np.flatnonzero(cand > Cr[:, k - 1])
        if rows.size:
            cvals = cand[rows]
            # insertion position: number of stored corrs >= new one
            ins = (Cr[rows] >= cvals[:, None]).sum(axis=1)
            for col in range(k - 1, 0, -1):
                mv = rows[ins <= col - 1]
                Cr[mv, col] = Cr[mv, col - 1]
                Nr[mv, col] = Nr[mv, col - 1]
            Cr[rows, ins] = cvals
            Nr[rows, ins] = self.pos - self.w   # the newest's start

    def update(self, x: float) -> np.ndarray | None:
        """Ingress one data point; O(k*d) (paper Section 3.6).

        :meth:`slide`, then (a) the newest row receives its ``k`` best
        neighbours among the older subsequences outside its exclusion
        zone (lines 21-22), then :meth:`adopt`.  Returns what
        :meth:`slide` returns.
        """
        corr = self.slide(x)
        if corr is None:
            return None
        m = self.n_subseqs
        n_cand = m - 1 - self.excl
        if n_cand < 1:
            return corr
        cand = corr[:n_cand]
        top = min(self.k, n_cand)
        sel = np.argpartition(-cand, top - 1)[:top]
        sel = sel[np.argsort(-cand[sel], kind="stable")]
        new = self._off + m - 1
        self._C[new, :top] = cand[sel]
        self._N[new, :top] = sel + self.start_abs
        self.adopt(corr)
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
