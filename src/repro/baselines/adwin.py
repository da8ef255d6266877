"""ADWIN — ADaptive WINdowing (Bifet & Gavaldà, SDM 2007).

Maintains a variable-length window of recent values compressed into an
exponential histogram (at most ``M`` buckets per power-of-two size, so
O(M log n) memory).  On each insert it checks every bucket boundary: if
the means of the two induced sub-windows differ by more than the
variance-aware cut bound

    eps_cut = sqrt(2/m * sigma_W^2 * ln(2/delta')) + 2/(3m) * ln(2/delta')

(with ``1/m = 1/n0 + 1/n1`` and ``delta' = delta / n``), the older
sub-window is dropped and its boundary reported as a change point.
Values are normalised to [0, 1] with running min/max, as ADWIN assumes a
bounded input.  Amortised O(log c) per update (paper Table 2).
"""
from __future__ import annotations

import math

from repro.baselines.base import StreamingDetector

__all__ = ["ADWIN"]

MAX_BUCKETS = 5   # M: buckets kept per power-of-two size
MIN_N = 32        # values in the window before cuts are checked
EXCL = 32         # minimum distance between two reported CPs


class _Bucket:
    __slots__ = ("total", "variance", "count")

    def __init__(self, total: float, variance: float, count: int) -> None:
        self.total = total
        self.variance = variance
        self.count = count


class ADWIN(StreamingDetector):
    def __init__(self, delta: float = 0.01) -> None:
        super().__init__()
        self.delta = delta
        # rows[i] holds buckets of count 2^i, newest first.
        self.rows: list[list[_Bucket]] = [[]]
        self.n = 0
        self.total = 0.0
        self.variance = 0.0  # sum of squared deviations (n * sigma^2)
        self._lo = math.inf
        self._hi = -math.inf

    # -- exponential histogram maintenance ----------------------------
    def _insert(self, x: float) -> None:
        if self.n > 0:
            mean = self.total / self.n
            self.variance += (x - mean) ** 2 * self.n / (self.n + 1)
        self.n += 1
        self.total += x
        self.rows[0].insert(0, _Bucket(x, 0.0, 1))
        row = 0
        while len(self.rows[row]) > MAX_BUCKETS:
            if row + 1 == len(self.rows):
                self.rows.append([])
            b2, b1 = self.rows[row][-1], self.rows[row][-2]
            n1, n2 = b1.count, b2.count
            u1, u2 = b1.total / n1, b2.total / n2
            merged_var = (b1.variance + b2.variance
                          + n1 * n2 / (n1 + n2) * (u1 - u2) ** 2)
            self.rows[row + 1].insert(
                0, _Bucket(b1.total + b2.total, merged_var, n1 + n2))
            del self.rows[row][-2:]
            row += 1

    def _drop_oldest(self) -> None:
        for row in range(len(self.rows) - 1, -1, -1):
            if self.rows[row]:
                b = self.rows[row].pop()
                self.n -= b.count
                self.total -= b.total
                # variance bookkeeping is approximate after deletion;
                # recompute lazily from remaining buckets.
                self.variance = self._recompute_variance()
                return

    def _recompute_variance(self) -> float:
        if self.n == 0:
            return 0.0
        mean = self.total / self.n
        acc = 0.0
        for row in self.rows:
            for b in row:
                mu = b.total / b.count
                acc += b.variance + b.count * (mu - mean) ** 2
        return acc

    def _buckets_old_to_new(self):
        for row in range(len(self.rows) - 1, -1, -1):
            for b in reversed(self.rows[row]):
                yield b

    # -- detection ----------------------------------------------------
    def _step(self, x: float) -> int | None:
        self._lo = min(self._lo, x)
        self._hi = max(self._hi, x)
        span = self._hi - self._lo
        v = (x - self._lo) / span if span > 1e-12 else 0.5
        self._insert(v)
        if self.n < MIN_N:
            return None
        cp = None
        shrunk = True
        while shrunk and self.n >= MIN_N:
            shrunk = False
            sigma2 = self.variance / self.n
            dprime = self.delta / max(self.n, 2)
            ln_term = math.log(2.0 / dprime)
            n0, t0 = 0, 0.0
            for b in self._buckets_old_to_new():
                n0 += b.count
                t0 += b.total
                n1 = self.n - n0
                if n0 < 5 or n1 < 5:
                    continue
                m_h = 1.0 / (1.0 / n0 + 1.0 / n1)
                eps = (math.sqrt(2.0 / m_h * sigma2 * ln_term)
                       + 2.0 / (3.0 * m_h) * ln_term)
                mu0 = t0 / n0
                mu1 = (self.total - t0) / n1
                if abs(mu0 - mu1) > eps:
                    boundary = self.pos - n1
                    self._drop_oldest()
                    shrunk = True
                    if cp is None and self._spaced(boundary, EXCL):
                        cp = boundary
                    break
        return cp
