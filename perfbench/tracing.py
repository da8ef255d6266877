"""Timing wrappers around the public kernel functions, installed from
outside the program.

``class_stream`` imports ``cross_val_scores``, ``split_label_counts``,
``resampled_rank_sum_test`` and ``learn_width`` by name, so those are
patched inside ``repro.core.class_stream``; ``StreamingKNN.update`` and
``ClaSS.update`` are patched on their classes.  A layer's self time is
its call's duration minus the time of the wrapped calls it made.
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

# (span name, module attribute) pairs patched inside class_stream.
_BY_NAME = (
    ("scoring.cross_val", "cross_val_scores"),
    ("scoring.split_counts", "split_label_counts"),
    ("significance.test", "resampled_rank_sum_test"),
    ("suss.learn_width", "learn_width"),
)


class Tracer:
    """Per-span call counts, total and self time, kept in memory."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.warmups = 0
        self.warmup_replay_s = 0.0
        self._children: list[float] = []   # child time of each open span

    def wrap(self, name: str, fn):
        clock = time.perf_counter

        def span(*args, **kwargs):
            self._children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = self._children.pop()
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - child
                if self._children:
                    self._children[-1] += dur
        return span

    def wrap_update(self, fn):
        """``ClaSS.update``; the call that learns w also replays the
        warm-up buffer, whose duration is recorded apart."""
        inner = self.wrap("class.update", fn)

        def update(cls, x):
            n_lw = self.calls["suss.learn_width"]
            lw_s = self.total_s["suss.learn_width"]
            t0 = time.perf_counter()
            got = inner(cls, x)
            if self.calls["suss.learn_width"] > n_lw:
                self.warmups += 1
                self.warmup_replay_s += (time.perf_counter() - t0
                                         - (self.total_s["suss.learn_width"]
                                            - lw_s))
            return got
        return update

    @contextlib.contextmanager
    def installed(self):
        """Patch the kernels for the duration of the ``with`` block."""
        from repro.core import class_stream
        from repro.core.streaming_knn import StreamingKNN

        saved = [(class_stream, attr, getattr(class_stream, attr))
                 for _, attr in _BY_NAME]
        saved += [(StreamingKNN, "update", StreamingKNN.update),
                  (class_stream.ClaSS, "update", class_stream.ClaSS.update)]
        try:
            for name, attr in _BY_NAME:
                setattr(class_stream, attr,
                        self.wrap(name, getattr(class_stream, attr)))
            StreamingKNN.update = self.wrap("knn.update", StreamingKNN.update)
            class_stream.ClaSS.update = self.wrap_update(
                class_stream.ClaSS.update)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def per_call_us(self, name: str) -> float:
        n = self.calls[name]
        return 1e6 * self.self_s[name] / n if n else 0.0
