"""ClaSS — Classification Score Stream (paper Algorithm 1).

The per-point state machine: maintain the streaming k-NN over the
sliding window, score every hypothetical split of the unsegmented window
suffix with self-supervised cross-validation, and report the global
profile maximum as a change point when the Wilcoxon rank-sum test on the
predicted labels is significant.

The object is deliberately free of any Spark dependency so the same
state machine drives the standalone evaluation (paper Section 4.3), the
batch-parallel ``applyInPandas`` harness, and the Structured Streaming
stateful operator (the paper's Flink window operator, Section 4.4) — all
three through :meth:`~repro.baselines.base.StreamingDetector.feed` — and
it is picklable between micro-batches.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.baselines.base import StreamingDetector
# The scoring kernel and SuSS are bound under the names
# ``cross_val_scores`` and ``learn_width`` and called through them, like
# the significance test, so timing wrappers can patch each on this
# module.  ``split_label_counts`` is bound for those wrappers only:
# ``best_split`` returns the counts.
from repro.core.scoring import best_split as cross_val_scores
from repro.core.scoring import pred_thresholds
from repro.core.scoring import split_label_counts  # noqa: F401
from repro.core.significance import resampled_rank_sum_test
from repro.core.streaming_knn import StreamingKNN
from repro.core.suss import suss as learn_width

__all__ = ["ClaSS", "ClaSSConfig"]

# ClaSS's fixed settings; DESIGN.md §3 gives the paper section of each.
K = 3                  # neighbours per subsequence
P_THRESHOLD = 1e-50    # significance level of the rank-sum test
SAMPLE_SIZE = 1000     # labels resampled per test
SEED = 2357            # seed of the resampling generator
# CP candidates must keep `EXCL_FACTOR * w` subsequences on each side of
# the split.  The ClaSP family uses an exclusion radius of 5 subsequence
# widths around candidate CPs; without it, the first few rows (whose
# neighbours are biased to low offsets while the k-NN warms up)
# manufacture statistically significant but meaningless splits right at
# the region border.
EXCL_FACTOR = 5
# SuSS searches w in [W_LBOUND, max(W_LBOUND + 1, d // 10)].
W_LBOUND = 10


@dataclass
class ClaSSConfig:
    """Parameters of ClaSS (paper Section 4.2).

    ``d`` is the only hyper-parameter (sliding window size); ``w`` is
    learned with SuSS from the first ``d`` observations unless given.
    """

    d: int = 10_000
    w: int | None = None              # None -> learn via SuSS on warm-up


class ClaSS(StreamingDetector):
    """Streaming segmentation state machine, the ``"class"`` entry of
    :data:`repro.methods.METHODS`.

    Build it as ``ClaSS(ClaSSConfig(d=...))`` or, as
    :func:`~repro.methods.make_detector` does, from
    :class:`ClaSSConfig` fields: ``ClaSS(d=...)``.  Raises ``ValueError``
    for ``d < 6`` or a given ``w < 3``, the smallest window and width
    the k-NN accepts.
    """

    def __init__(self, config: ClaSSConfig | None = None, **params) -> None:
        super().__init__()
        self.config = cfg = replace(config or ClaSSConfig(), **params)
        if cfg.d < 6:
            raise ValueError(f"window size d must be >= 6, got {cfg.d}")
        if cfg.w is not None and cfg.w < 3:
            raise ValueError(f"subsequence width w must be >= 3, got {cfg.w}")
        self._warmup: list[float] = []
        self._knn: StreamingKNN | None = None
        self._w: int | None = cfg.w
        # Stream position where the unsegmented region starts: the last
        # CP, or 0 before the first.
        self._region_start_abs = 0
        self._rng = np.random.default_rng(SEED)

    # ------------------------------------------------------------------
    @property
    def width(self) -> int | None:
        """The learned (or configured) subsequence width."""
        return self._w

    # ------------------------------------------------------------------
    def _step(self, x: float) -> int | None:
        if self._knn is not None:
            return self._ingest(x)
        # Warm-up: buffer the first d points, learn w, then replay
        # them through the pipeline (paper Section 3.4: "processes
        # the stream from the first observation onward").
        cfg = self.config
        self._warmup.append(x)
        if len(self._warmup) < cfg.d:
            return None
        sample = np.asarray(self._warmup, dtype=np.float64)
        if self._w is None:
            self._w = max(3, learn_width(
                sample, lbound=W_LBOUND,
                ubound=max(W_LBOUND + 1, cfg.d // 10)))
        self._w = min(self._w, max(3, cfg.d // 4))
        self._knn = StreamingKNN(cfg.d, self._w, K)
        replay, self._warmup = self._warmup, []
        found = [cp for v in replay if (cp := self._ingest(v)) is not None]
        # The replay can find several CPs: all but the latest are
        # recorded here, the latest is returned like any other.
        self.change_points.extend(found[:-1])
        return found[-1] if found else None

    # ------------------------------------------------------------------
    def _ingest(self, x: float) -> int | None:
        knn = self._knn
        assert knn is not None and self._w is not None
        w = self._w
        knn.update(x)
        # The region starts at the last CP, or at the window's start once
        # that CP has egressed (paper Alg. 1 line 6).
        rs = max(0, self._region_start_abs - knn.start_abs)
        region = knn.n_subseqs - rs
        # Valid splits keep EXCL_FACTOR*w subsequences on both sides.
        # Passing this check means region >= 2*EXCL_FACTOR*w >= 30 and
        # 1 <= valid_lo <= valid_hi <= region - 1, the kernel's range.
        margin = EXCL_FACTOR * w
        valid_lo, valid_hi = margin, region - margin  # s in [lo, hi]
        if valid_hi < valid_lo:
            return None

        # Flip thresholds once per point, region-relative (the k-th
        # smallest commutes with the shift from absolute positions); one
        # pass gives the best valid split and its label counts.
        t = pred_thresholds(knn.N[rs:])
        t -= knn.start_abs + rs
        s_best, l0, l1, r0, r1 = cross_val_scores(t, valid_lo, valid_hi)
        p = resampled_rank_sum_test(
            l0, l1, r0, r1, sample_size=SAMPLE_SIZE, rng=self._rng)
        if p > P_THRESHOLD:
            return None
        # The CP as a stream position; the next region starts there.
        self._region_start_abs = knn.start_abs + rs + s_best + w - 1
        return self._region_start_abs
