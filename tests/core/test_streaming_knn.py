"""Exactness tests for the streaming k-NN (paper Algorithm 2)."""
import pickle

import numpy as np
import pytest

from repro.core import streaming_knn
from repro.core.class_stream import ClaSS, ClaSSConfig
from repro.core.streaming_knn import (StreamingKNN, _safe_pearson, _top_k,
                                      batch_knn, pairwise_pearson,
                                      rolling_mean_std)
from repro.harness.throughput import _test_stream


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


def _flat_noise_flat(n_noise=30, n_flat=40, seed=7):
    """A flat stretch, a noise segment, and a flat stretch at another
    level: flat-vs-flat correlations tie at exactly 1.0, flat-vs-other
    ones at exactly 0.0.  One boundary of each kind, so no two non-flat
    subsequences share a shape up to scale (as two one-outlier ones
    would) and tie only up to rounding."""
    rng = np.random.default_rng(seed)
    return np.concatenate([np.full(n_flat, 0.3), rng.standard_normal(n_noise),
                           np.full(n_flat, 0.7)])


def _ranked(vals, k):
    """Top-k offsets by the documented rule: highest correlation first,
    equal correlations lowest offset first."""
    return np.argsort(-vals, kind="stable")[:k]


def test_top_k_rule_with_ties_and_nan():
    """Highest first, equal values lowest offset first, NaN below every
    number: what a stable descending sort gives, for any ``k``."""
    rng = np.random.default_rng(8)
    for trial in range(200):
        vals = rng.choice([-1.0, 0.0, 0.25, 1.0, np.nan], size=12)
        vals[rng.random(12) < 0.3] = rng.standard_normal()
        for k in (1, 3, 12):
            np.testing.assert_array_equal(_top_k(vals, k),
                                          _ranked(vals, k))


@pytest.mark.parametrize("w,k", [(6, 3), (10, 5)])
def test_exact_ties_go_to_the_lowest_offset(w, k):
    """Exact 1.0/0.0 ties: before egress every row (``N`` included)
    equals the batch oracle's, and both rank equal correlations lowest
    offset first; after egress the newest row is still the exact top-k
    of its correlations by that rule, at every step."""
    T = _flat_noise_flat()
    s = StreamingKNN(d=400, w=w, k=k)
    for x in T:
        s.update(x)
    C_b, N_b = batch_knn(T, w, k)
    np.testing.assert_allclose(s.C, C_b, atol=1e-8)
    np.testing.assert_array_equal(s.N - s.start_abs, N_b)
    corr = pairwise_pearson(T, w)
    m = len(T) - w + 1
    ties = 0
    for j in range(m):
        cand = np.flatnonzero(np.abs(np.arange(m) - j) > s.excl)
        vals = corr[j, cand]
        top = _ranked(vals, k)
        np.testing.assert_array_equal(N_b[j], cand[top])
        ties += np.count_nonzero(vals == vals[top[-1]]) > 1
    assert ties > m // 2

    d = 100
    T = np.concatenate([_flat_noise_flat(seed=r) for r in range(4)])
    s = StreamingKNN(d=d, w=w, k=k)
    for x in T:
        corr = s.update(x)
        n_cand = s.n_subseqs - 1 - s.excl
        if s.start_abs == 0 or n_cand < k:
            continue
        top = _ranked(corr[:n_cand], k)
        np.testing.assert_array_equal(s.N[-1] - s.start_abs, top)
        np.testing.assert_array_equal(s.C[-1], corr[top])
        brute = pairwise_pearson(s.win, w)[-1, :n_cand]
        np.testing.assert_allclose(s.C[-1], np.sort(brute)[::-1][:k],
                                   atol=1e-8)
    assert s.start_abs > 2 * d


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


def _stats(s):
    """The stored ``w * mu``, ``w * sig`` and flat flag per subsequence."""
    return s._rows(s._wmu), s._rows(s._wsig), s._rows(s._flat)


@pytest.mark.parametrize("w, d", [(7, 50), (9, 50), (37, 120), (130, 300)])
def test_stats_equal_numpy_after_egress_wrap_and_flat(w, d):
    """Each subsequence's mean and std, computed once when it enters the
    window, must stay those of its values while the window slides, the
    buffers wrap, and a flat stretch passes through: the stored
    ``w * mu`` and ``w * sig`` are ``w`` times ``np.mean``/``np.std``
    bit for bit, and the flat flags and their count follow ``sig``.  The
    widths cover numpy's summation paths: a plain loop (w < 8), eight
    unrolled partial sums (w >= 8) and pairwise blocks (w > 128)."""
    T = _with_flat_stretch(3 * d + 17, flat_at=5 * d // 2, flat_len=w + 23)
    s = StreamingKNN(d=d, w=w, k=3)
    wrapped = False
    for i, x in enumerate(T):
        s.update(x)
        wrapped |= i >= d and s._off == 0
        if i < 2 * d:
            continue
        subs = np.lib.stride_tricks.sliding_window_view(s.win, w)
        wmu, wsig, flat = _stats(s)
        assert len(wmu) == len(wsig) == len(flat) == len(subs) == s.n_subseqs
        for j, sub in enumerate(subs):
            assert wmu[j] == w * np.mean(sub)
            assert wsig[j] == w * np.std(sub)
            assert flat[j] == (np.std(sub) < 1e-12)
        assert s._nflat == np.count_nonzero(flat)
    assert wrapped
    assert flat.any() and not flat.all()


def _state(s):
    return ([a.tobytes() for a in (s.win, s._q, s.C, s.N, *_stats(s))]
            + [s._nflat])


def _rowmajor_state(s):
    """The state dict as the row-major ``(2 d, k)`` row buffers wrote it
    (operator checkpoints hold it): ``C``/``N`` are C-contiguous
    ``(m, k)`` views into those buffers."""
    m, off = s.n_subseqs, s._off
    C = np.empty((2 * s.d, s.k))
    N = np.empty((2 * s.d, s.k), dtype=np.int64)
    C[off:off + m], N[off:off + m] = s.C, s.N
    return {"d": s.d, "w": s.w, "k": s.k, "pos": s.pos,
            "start_abs": s.start_abs, "win": s.win, "q": s._q,
            "C": C[off:off + m], "N": N[off:off + m]}


@pytest.mark.parametrize("block", [1 << 16, 16])
def test_pickle_round_trip_around_buffer_wrap(monkeypatch, block):
    """A k-NN restored from a pickle taken just before, at or just after
    a buffer wrap holds the same window, dot products and rows, and
    produces the same outputs as an uninterrupted instance, bit for bit;
    the pickle carries no buffer slack.  The state keeps its format:
    ``C``/``N`` are C-contiguous ``(m, k)`` arrays, pickled to the same
    bytes as the row-major layout's, and a state dict written in that
    layout resumes the same way.  A small ``_STATS_BLOCK`` makes the
    load recompute the statistics in several blocks."""
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
        m = a.n_subseqs
        assert len(blob) < 8 * (d + m + 2 * m * k) + 1_000
        state, old = a.__getstate__(), _rowmajor_state(a)
        assert state.keys() == old.keys()
        for key in ("C", "N"):
            assert state[key].shape == (m, k)
            assert state[key].flags.c_contiguous
        assert pickle.dumps(state) == pickle.dumps(old)
        b = pickle.loads(blob)
        c = StreamingKNN.__new__(StreamingKNN)
        c.__setstate__(pickle.loads(pickle.dumps(old)))
        for b in (b, c):
            assert _state(b) == _state(a)
            for i in range(cut + 1, len(T)):
                assert b.update(T[i]).tobytes() == outs[i], (cut, i)
            assert _state(b) == _state(ref)
            assert (b.pos, b.start_abs) == (ref.pos, ref.start_abs)


def test_class_resumes_from_rowmajor_checkpoint(monkeypatch):
    """A ClaSS pickled with the row-major layout's k-NN state (as an
    operator checkpoint holds it) resumes to the uninterrupted run's
    CPs."""
    T = _test_stream(6000, 1)[0]
    ref_cps = ClaSS(ClaSSConfig(d=600)).feed(T)
    assert len(ref_cps) >= 2
    cls = ClaSS(ClaSSConfig(d=600))
    cps = cls.feed(T[:3000])
    with monkeypatch.context() as mp:
        mp.setattr(StreamingKNN, "__getstate__", _rowmajor_state)
        blob = pickle.dumps(cls)
    cps += pickle.loads(blob).feed(T[3000:])
    assert cps == ref_cps


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
    wmu, wsig, flat = w * mu, w * sig, sig < 1e-12
    got = _safe_pearson(subs @ subs[1], wmu, wsig, mu[1], sig[1], flat)
    np.testing.assert_array_equal(got, [0.0, 1.0, 0.0])
    got = _safe_pearson(subs @ subs[0], wmu, wsig, mu[0], sig[0], flat)
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
