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
subsequence statistics and the k-NN rows live in preallocated buffers
of ``2 d`` slots that share one offset: window point ``i`` and the
subsequence starting at it both sit at slot ``offset + i``.  When the
window is full, each point advances the offset by one (the oldest point
and subsequence egress) and writes the new point and row at the end;
once the end of the buffers is reached, the live part is copied back to
slot 0, once every ``d + 1`` points.  The k-NN rows are stored column-
major, as ``(k, 2 d)`` buffers: each neighbour rank is one contiguous
run of slots, so the worst stored correlation that the "k-NN Update"
compares against (rank ``k - 1``), and FLOSS's and the scorer's per-rank
reads, are contiguous.  The (w-1)-length dot products ``_q`` sit
right-aligned in a buffer of ``d - w + 1`` slots, because a growing
window prepends one slot per point and a full one keeps its slots in
place.  The public arrays (``win``, ``C``, ``N``) are views derived
from the buffers when read; ``C`` and ``N`` are ``(m, k)`` transposed
views.  Pickling keeps only the live window, ``_q`` and rows (``C``/``N``
as C-ordered ``(m, k)`` arrays), and rebuilds the slack and the
statistics on load.

The mean ``mu`` and standard deviation ``sig`` of a subsequence (paper
Eqns. 1-2) are computed once, from its own ``w`` values, when it enters
the window, bit for bit ``np.mean``/``np.std`` of the subsequence, so a
restored instance recomputes the same values.  What is stored is what
the correlation (Eqn. 4) reads: ``w * mu``, ``w * sig`` and whether the
subsequence is flat (``sig < 1e-12``).  A running count of flat
subsequences goes up on ingress and down on egress, so a point with no
flat subsequence in the window passes no flat mask.

Ties
----
Each row's neighbours are ordered by correlation, highest first; among
equal correlations (such as the exact 1.0 of two flat subsequences, or
the 0.0 of a flat one against any other) the lowest window offset, the
oldest subsequence, comes first.  A NaN correlation ranks below every
number.  The batch oracle :func:`batch_knn` selects with the same rule.
The "k-NN Update" only adopts a subsequence that strictly beats a row's
worst stored neighbour, so a younger subsequence never displaces an
equal older one.

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

import math

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


def _top_k(vals: np.ndarray, k: int) -> np.ndarray:
    """Offsets of the ``k`` largest of ``vals`` (``k <= len(vals)``),
    largest first; equal values go lowest offset first and NaN ranks
    below every number.  ``k`` argmax passes over a copy, each pick
    masked with ``-inf``."""
    v = vals.copy()
    top = np.empty(k, dtype=np.intp)
    for i in range(k):
        j = top[i] = v.argmax()
        if v[j] != v[j]:
            # argmax stops at the first NaN; a stable sort puts NaN last.
            return np.argsort(-vals, kind="stable")[:k]
        v[j] = -np.inf
    return top


def _safe_pearson(q: np.ndarray, wmu: np.ndarray, wsig: np.ndarray,
                  mu_q: float, sig_q: float,
                  flat: np.ndarray | None) -> np.ndarray:
    """Pearson correlation from dot products (paper Eqn. 4), given
    ``w * mu`` and ``w * sig`` of each subsequence, and guarding
    zero-variance (flat) subsequences: flat-vs-flat correlates 1, flat
    vs non-flat correlates 0.  ``flat`` masks the flat subsequences, or
    is ``None`` when there are none."""
    if sig_q < 1e-12:
        if flat is None:
            return np.zeros(len(q))
        return flat.astype(np.float64)
    c = np.multiply(wmu, mu_q)
    np.subtract(q, c, out=c)
    denom = np.multiply(wsig, sig_q)
    if flat is not None:
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
        self._wmu = np.empty(2 * d)     # w * mu
        self._wsig = np.empty(2 * d)    # w * sig
        self._flat = np.empty(2 * d, dtype=bool)
        self._nflat = 0                 # flat subsequences in the window
        self._C = np.empty((k, 2 * d))
        self._N = np.empty((k, 2 * d), dtype=np.int64)
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
        return buf[..., self._off:self._off + self.n_subseqs]

    @property
    def win(self) -> np.ndarray:
        return self._buf[self._off:self._off + self.pos - self.start_abs]

    @property
    def C(self) -> np.ndarray:
        return self._rows(self._C).T

    @property
    def N(self) -> np.ndarray:
        return self._rows(self._N).T

    @property
    def _q(self) -> np.ndarray:
        return self._qbuf[len(self._qbuf) - self.n_subseqs:]

    def _row_major(self, buf: np.ndarray) -> np.ndarray:
        """The live rows of a ``(k, 2 d)`` buffer as a C-ordered
        ``(m, k)`` array, filled one rank (a contiguous read) at a time,
        which copies faster than ``np.stack`` or a transposed ``copy``."""
        ranks = self._rows(buf)
        out = np.empty(ranks.shape[::-1], dtype=buf.dtype)
        for c, rank in enumerate(ranks):
            out[:, c] = rank
        return out

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Views pickle their own elements only: the slack stays behind.
        # The rows pickle as C-ordered (m, k) arrays, whatever the
        # buffers' layout, so the state format does not follow it.
        return {"d": self.d, "w": self.w, "k": self.k, "pos": self.pos,
                "start_abs": self.start_abs, "win": self.win, "q": self._q,
                "C": self._row_major(self._C), "N": self._row_major(self._N)}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["d"], state["w"], state["k"])
        self.pos, self.start_abs = state["pos"], state["start_abs"]
        win = state["win"]
        m = self.n_subseqs
        self._buf[:len(win)] = win
        self._qbuf[len(self._qbuf) - m:] = state["q"]
        self._C[:, :m], self._N[:, :m] = state["C"].T, state["N"].T
        mu, sig = rolling_mean_std(win, self.w)
        np.multiply(self.w, mu, out=self._wmu[:m])
        np.multiply(self.w, sig, out=self._wsig[:m])
        flat = np.less(sig, 1e-12, out=self._flat[:m])
        self._nflat = int(np.count_nonzero(flat))

    def _compact(self) -> None:
        """Copy the live points and rows back to slot 0."""
        off, n = self._off, self.d - 1
        for buf in (self._buf, self._wmu, self._wsig, self._flat):
            buf[:n] = buf[off:off + n]
        for buf in (self._C, self._N):
            buf[:, :n] = buf[:, off:off + n]
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
            if self._flat[self._off]:
                self._nflat -= 1
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
        # The 1-D form of _mean_std: the same bits, fewer calls.
        sub = win[L - w:]
        mu_q = np.add.reduce(sub) / w
        dev = sub - mu_q
        dev *= dev
        sig_q = math.sqrt(np.add.reduce(dev) / w)
        self._wmu[new], self._wsig[new] = w * mu_q, w * sig_q
        self._flat[new] = flat_q = sig_q < 1e-12
        self._nflat += int(flat_q)

        # --- dot products (paper Alg. 2 lines 5-10, Eqns. 3/5) --------
        q = self._qbuf[len(self._qbuf) - m:]
        if not at_capacity:
            # A new leftmost slot appears while the window grows; its
            # (w-1)-dot with the newest subsequence's first w-1 points
            # is computed directly in O(w) (paper line 6).
            q[0] = win[0:w - 1] @ win[L - w:L - 1]
        q_full = win[w - 1:L] * x
        q_full += q                          # Eqn. 3: w-length dots
        flat = self._flat[off:new + 1] if self._nflat else None
        corr = _safe_pearson(q_full, self._wmu[off:new + 1],
                             self._wsig[off:new + 1], mu_q, sig_q, flat)
        # Eqn. 5: restore (w-1)-length dots for the next update.
        np.multiply(win[0:m], win[L - w], out=q)
        np.subtract(q_full, q, out=q)

        self._C[:, new] = -np.inf
        self._N[:, new] = self._UNSET
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
        Cr, Nr = self._C[:, off:off + n_cand], self._N[:, off:off + n_cand]
        rows = (cand > Cr[k - 1]).nonzero()[0]
        newest = self.pos - self.w   # the newest's start
        # A few rows adopt per point (about 2 in a steady d=10k stream),
        # so each is an insertion into its sorted k ranks; stored equal
        # correlations stay ahead of the newest.
        for r, c in zip(rows.tolist(), cand[rows].tolist()):
            i = k - 1
            while i and Cr[i - 1, r] < c:
                Cr[i, r], Nr[i, r] = Cr[i - 1, r], Nr[i - 1, r]
                i -= 1
            Cr[i, r], Nr[i, r] = c, newest

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
        sel = _top_k(cand, top)
        new = self._off + m - 1
        self._C[:top, new] = cand[sel]
        self._N[:top, new] = sel + self.start_abs
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
    flat = sig < 1e-12
    flat = flat if flat.any() else None
    wmu, wsig = w * mu, w * sig
    out = np.empty((m, m))
    for i in range(m):
        q = subs @ subs[i]
        out[i] = _safe_pearson(q, wmu, wsig, mu[i], sig[i], flat)
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
        sel = _top_k(vals, top)
        C[j, :top] = vals[sel]
        N[j, :top] = cand[sel]
    return C, N
