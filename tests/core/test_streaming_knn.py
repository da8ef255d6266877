"""Exactness tests for the streaming k-NN (paper Algorithm 2)."""
import pickle

import numpy as np
import pytest

from repro.core import streaming_knn
from repro.core.streaming_knn import (StreamingKNN, _safe_pearson, batch_knn,
                                      pairwise_pearson, rolling_mean_std)


def _signals(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return {
        "noise": rng.standard_normal(n),
        "sine": np.sin(2 * np.pi * t / 17) + 0.05 * rng.standard_normal(n),
        "walk": np.cumsum(rng.standard_normal(n)),
        "mix": np.concatenate([
            np.sin(2 * np.pi * np.arange(n // 2) / 11),
            np.sign(np.sin(2 * np.pi * np.arange(n - n // 2) / 23)),
        ]) + 0.05 * rng.standard_normal(n),
    }


@pytest.mark.parametrize("signal", ["noise", "sine", "walk", "mix"])
@pytest.mark.parametrize("w,k", [(8, 1), (8, 3), (15, 3), (25, 5)])
def test_streaming_equals_batch_no_egress(signal, w, k):
    """While nothing egresses, every row must hold the exact top-k
    neighbours (correlations and indices) of the batch oracle."""
    T = _signals(180)[signal]
    s = StreamingKNN(d=400, w=w, k=k)
    for x in T:
        s.update(x)
    C_b, N_b = batch_knn(T, w, k)
    np.testing.assert_allclose(s.C, C_b, atol=1e-8)
    # Indices may differ only where correlations tie; require value
    # equality of the correlations implied by the chosen indices.
    assert s.N.shape == N_b.shape
    rel = s.N - s.start_abs
    mism = rel != N_b
    if mism.any():
        corr = pairwise_pearson(T, w)
        rows, cols = np.nonzero(mism)
        for j, c in zip(rows, cols):
            got = rel[j, c]
            exp = N_b[j, c]
            assert got >= 0 and np.isclose(
                corr[j, got], corr[j, exp], atol=1e-8)


@pytest.mark.parametrize("w,k", [(8, 3), (15, 3)])
def test_newest_row_exact_after_egress(w, k):
    """With a sliding (full) window, the newest row must still be the
    exact top-k among in-window older candidates at every step."""
    T = _signals(300, seed=1)["mix"]
    d = 120
    s = StreamingKNN(d=d, w=w, k=k)
    for i, x in enumerate(T):
        s.update(x)
        m = s.n_subseqs
        if i < d + 10 or m < 3 * w:
            continue
        corr = pairwise_pearson(s.win, w)
        j = m - 1
        cand = np.arange(0, m - 1 - s.excl)
        if cand.size < k:
            continue
        best = np.sort(corr[j, cand])[::-1][:k]
        np.testing.assert_allclose(s.C[j], best, atol=1e-8)


def test_stored_correlations_consistent_after_egress():
    """Stored C entries must equal the recomputed correlation between
    the row and its stored neighbour whenever both are in-window."""
    T = _signals(260, seed=2)["sine"]
    w, k, d = 10, 3, 100
    s = StreamingKNN(d=d, w=w, k=k)
    for x in T:
        s.update(x)
    corr = pairwise_pearson(s.win, w)
    rel = s.N - s.start_abs
    m = s.n_subseqs
    for j in range(m):
        for c in range(k):
            o = rel[j, c]
            if 0 <= o < m and np.isfinite(s.C[j, c]):
                assert np.isclose(s.C[j, c], corr[j, o], atol=1e-8)


def test_exclusion_zone_respected():
    T = _signals(200, seed=3)["sine"]
    w, k = 12, 3
    s = StreamingKNN(d=400, w=w, k=k)
    for x in T:
        s.update(x)
    rel = s.N - s.start_abs
    m = s.n_subseqs
    for j in range(m):
        for o in rel[j]:
            if o >= 0:
                assert abs(o - j) > s.excl


def test_incremental_dot_products_exact():
    """The maintained Q must equal naive dot products at every step."""
    rng = np.random.default_rng(4)
    T = rng.standard_normal(120)
    w, d = 7, 50
    s = StreamingKNN(d=d, w=w, k=1)
    for i, x in enumerate(T):
        corr = s.update(x)
        if corr is None:
            continue
        win = s.win
        L = len(win)
        m = L - w + 1
        # After update, _q holds dot(win[i+1:i+w], win[L-w+1:L]).
        for j in range(m):
            expect = float(win[j + 1:j + w] @ win[L - w + 1:L])
            assert np.isclose(s._q[j], expect, atol=1e-8), (i, j)


def test_correlations_in_range_and_flat_handling():
    s = StreamingKNN(d=100, w=6, k=2)
    vals = np.concatenate([np.zeros(30), np.sin(np.arange(40))])
    last = None
    for x in vals:
        last = s.update(x)
    assert last is not None
    assert np.all(last <= 1.0 + 1e-12) and np.all(last >= -1.0 - 1e-12)
    assert np.isfinite(s.C[np.isfinite(s.C)]).all()


def test_window_capacity_and_positions():
    s = StreamingKNN(d=50, w=5, k=2)
    for i in range(130):
        s.update(float(i % 7))
    assert len(s.win) == 50
    assert s.pos == 130
    assert s.start_abs == 80
    assert s.n_subseqs == 46


@pytest.mark.parametrize("bad", [dict(d=10, w=2), dict(d=8, w=5)])
def test_invalid_params_raise(bad):
    with pytest.raises(ValueError):
        StreamingKNN(k=1, **bad)


def test_pairwise_pearson_matches_numpy_corrcoef():
    rng = np.random.default_rng(5)
    T = rng.standard_normal(60)
    w = 9
    corr = pairwise_pearson(T, w)
    m = len(T) - w + 1
    for i in range(0, m, 7):
        for j in range(0, m, 11):
            expect = np.corrcoef(T[i:i + w], T[j:j + w])[0, 1]
            assert np.isclose(corr[i, j], expect, atol=1e-8)


def _with_flat_stretch(n, flat_at, flat_len, seed=6):
    x = _signals(n, seed)["mix"].copy()
    x[flat_at:flat_at + flat_len] = 0.3
    return x


def test_stats_equal_numpy_after_egress_wrap_and_flat():
    """Each subsequence's mean and std, computed once when it enters the
    window, must stay those of its values while the window slides, the
    buffers wrap, and a flat stretch passes through."""
    d, w = 50, 7
    T = _with_flat_stretch(3 * d + 17, flat_at=125, flat_len=30)
    s = StreamingKNN(d=d, w=w, k=3)
    wrapped = False
    for i, x in enumerate(T):
        s.update(x)
        wrapped |= i >= d and s._off == 0
        if i < 2 * d:
            continue
        subs = np.lib.stride_tricks.sliding_window_view(s.win, w)
        assert len(s.mu) == len(s.sig) == len(subs) == s.n_subseqs
        for j, sub in enumerate(subs):
            assert abs(s.mu[j] - np.mean(sub)) <= 1e-12
            assert abs(s.sig[j] - np.std(sub)) <= 1e-12
    assert wrapped
    flat = s.sig < 1e-12
    assert flat.any() and not flat.all()


def _state(s):
    return [a.tobytes() for a in (s.win, s._q, s.C, s.N, s.mu, s.sig)]


@pytest.mark.parametrize("block", [1 << 16, 16])
def test_pickle_round_trip_around_buffer_wrap(monkeypatch, block):
    """A k-NN restored from a pickle taken just before, at or just after
    a buffer wrap holds the same window, dot products and rows, and
    produces the same outputs as an uninterrupted instance, bit for bit;
    the pickle carries no buffer slack.  A small ``_STATS_BLOCK`` makes
    the load recompute the statistics in several blocks."""
    monkeypatch.setattr(streaming_knn, "_STATS_BLOCK", block)
    d, w, k = 40, 6, 3
    T = _with_flat_stretch(4 * d, flat_at=2 * d - 10, flat_len=15)
    ref = StreamingKNN(d=d, w=w, k=k)
    outs, offs = [], []
    for x in T:
        corr = ref.update(x)
        outs.append(None if corr is None else corr.tobytes())
        offs.append(ref._off)
    wrap = next(i for i in range(d, len(T)) if offs[i] == 0)
    for cut in (wrap - 1, wrap, wrap + 1):
        a = StreamingKNN(d=d, w=w, k=k)
        for x in T[:cut + 1]:
            a.update(x)
        blob = pickle.dumps(a)
        b = pickle.loads(blob)
        assert _state(b) == _state(a)
        m = b.n_subseqs
        assert len(blob) < 8 * (d + m + 2 * m * k) + 1_000
        for i in range(cut + 1, len(T)):
            assert b.update(T[i]).tobytes() == outs[i], (cut, i)
        assert _state(b) == _state(ref)
        assert (b.pos, b.start_abs) == (ref.pos, ref.start_abs)


@pytest.mark.parametrize("w", [1, 10, 37, 500, 1000])
def test_rolling_mean_std_matches_numpy(monkeypatch, w):
    """Bit for bit ``np.mean``/``np.std`` of every subsequence, with
    block boundaries falling inside the series."""
    monkeypatch.setattr(streaming_knn, "_STATS_BLOCK", 3 * w + 1)
    x = _signals(3000, seed=5)["walk"]
    roll = np.lib.stride_tricks.sliding_window_view(x, w)
    mu, sig = rolling_mean_std(x, w)
    assert mu.tobytes() == roll.mean(axis=1).tobytes()
    assert sig.tobytes() == roll.std(axis=1).tobytes()


def test_safe_pearson_flat_rows():
    """Flat-vs-flat correlates 1, flat vs non-flat 0, in both roles."""
    w = 4
    subs = np.array([[1.0, 2.0, 0.0, 5.0], [2.0, 2.0, 2.0, 2.0],
                     [0.0, 1.0, 3.0, 1.0]])
    mu, sig = subs.mean(axis=1), subs.std(axis=1)
    got = _safe_pearson(subs @ subs[1], w, mu, sig, mu[1], sig[1])
    np.testing.assert_array_equal(got, [0.0, 1.0, 0.0])
    got = _safe_pearson(subs @ subs[0], w, mu, sig, mu[0], sig[0])
    assert got[1] == 0.0 and got[0] == pytest.approx(1.0)
    assert got[2] == pytest.approx(np.corrcoef(subs[0], subs[2])[0, 1])


def test_slide_adopt_rows_are_right_constrained_1nn():
    """With ``slide`` + ``adopt`` at k=1 (FLOSS's use), after every point
    each row holds its right-constrained 1-NN: the best subsequence at
    an offset ``> j + excl``, ties going to the oldest, or nothing
    (``-inf`` / ``_UNSET``) when there is none.  Covers the growing
    window, egress and a flat stretch, whose correlations tie exactly."""
    d, w = 60, 8
    T = _with_flat_stretch(3 * d, flat_at=100, flat_len=20)
    s = StreamingKNN(d=d, w=w, k=1)
    for x in T:
        corr = s.slide(x)
        if corr is None:
            continue
        s.adopt(corr)
        m = s.n_subseqs
        brute = pairwise_pearson(s.win, w)
        got = s.N[:, 0] - s.start_abs
        for j in range(m):
            cand = np.arange(j + s.excl + 1, m)
            if cand.size == 0:
                assert s.C[j, 0] == -np.inf
                assert s.N[j, 0] == StreamingKNN._UNSET
                continue
            best = cand[np.argmax(brute[j, cand])]
            assert np.isclose(s.C[j, 0], brute[j, best], atol=1e-8)
            if got[j] != best:
                # Only a near-tie (not an exact one) may go either way.
                assert got[j] in cand
                assert brute[j, got[j]] != brute[j, best]
                assert np.isclose(brute[j, got[j]], brute[j, best],
                                  atol=1e-9)
    assert s.start_abs > d
