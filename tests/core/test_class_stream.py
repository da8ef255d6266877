"""End-to-end tests of the ClaSS state machine (paper Algorithm 1)."""
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.class_stream import ClaSS, ClaSSConfig


def _wave(kind, n, period, rng, noise=0.05):
    t = np.arange(n)
    base = {
        "sine": np.sin(2 * np.pi * t / period),
        "square": np.sign(np.sin(2 * np.pi * t / period)),
        "saw": 2 * ((t / period) % 1) - 1,
    }[kind]
    return base + noise * rng.standard_normal(n)


# Four 400-point regimes: at d=1000 the first two CPs are found while the
# warm-up buffer is replayed, i.e. all within the update of point 1000.
WARMUP_CPS = [395, 799, 1218]


def warmup_cp_series() -> np.ndarray:
    rng = np.random.default_rng(0)
    return np.concatenate([
        _wave("sine", 400, 20, rng), _wave("square", 400, 31, rng),
        _wave("saw", 400, 25, rng), _wave("sine", 400, 45, rng)])


def test_feed_returns_cps_found_during_warmup_replay():
    cls = ClaSS(ClaSSConfig(d=1000))
    series = warmup_cp_series()
    got = cls.feed(series[:1000])
    assert got == WARMUP_CPS[:2]
    assert got + cls.feed(series[1000:]) == WARMUP_CPS
    assert cls.change_points == WARMUP_CPS


def test_make_detector_builds_class():
    from repro.baselines.base import make_detector

    det = make_detector("class", d=1000)
    assert type(det) is ClaSS
    assert det.config == ClaSSConfig(d=1000)
    assert det.run(warmup_cp_series()) == WARMUP_CPS


@pytest.mark.parametrize("pair,tol", [
    (("sine", 20, "square", 20), 150),
    (("sine", 20, "sine", 45), 150),
    (("square", 25, "saw", 25), 200),
])
def test_detects_planted_shape_change(pair, tol):
    rng = np.random.default_rng(42)
    k1, p1, k2, p2 = pair
    a = _wave(k1, 2500, p1, rng)
    b = _wave(k2, 2500, p2, rng)
    cls = ClaSS(ClaSSConfig(d=1000))
    cps = cls.run(np.concatenate([a, b]))
    assert len(cps) >= 1
    assert min(abs(c - 2500) for c in cps) <= tol
    # no spurious CP far from the truth
    assert all(abs(c - 2500) <= 400 for c in cps)


def test_multiple_change_points():
    rng = np.random.default_rng(7)
    segs = [_wave("sine", 2000, 20, rng), _wave("square", 2000, 30, rng),
            _wave("saw", 2000, 55, rng)]
    cls = ClaSS(ClaSSConfig(d=1000))
    cps = cls.run(np.concatenate(segs))
    assert len(cps) >= 2
    for truth in (2000, 4000):
        assert min(abs(c - truth) for c in cps) <= 200


def test_silent_on_stationary_noise():
    rng = np.random.default_rng(3)
    cls = ClaSS(ClaSSConfig(d=1000))
    assert cls.run(rng.standard_normal(5000)) == []


def test_silent_on_homogeneous_periodic():
    rng = np.random.default_rng(4)
    cls = ClaSS(ClaSSConfig(d=1000))
    assert cls.run(_wave("sine", 6000, 24, rng)) == []


def test_short_stream_below_d_yields_nothing():
    rng = np.random.default_rng(5)
    cls = ClaSS(ClaSSConfig(d=2000))
    assert cls.run(rng.standard_normal(1500)) == []
    assert cls.width is None  # warm-up never completed


def test_width_learned_once_after_warmup():
    rng = np.random.default_rng(6)
    cls = ClaSS(ClaSSConfig(d=500))
    cls.run(_wave("sine", 600, 20, rng))
    assert cls.width is not None
    assert 3 <= cls.width <= 125  # clamped to d/4


def test_explicit_width_is_respected():
    cls = ClaSS(ClaSSConfig(d=500, w=17))
    rng = np.random.default_rng(8)
    cls.run(rng.standard_normal(600))
    assert cls.width == 17


def test_pickle_roundtrip_matches_uninterrupted_run():
    """The Structured Streaming operator pickles the machine between
    micro-batches; a mid-stream pickle/unpickle must not change any
    detection."""
    rng = np.random.default_rng(9)
    series = np.concatenate([
        _wave("sine", 2000, 20, rng), _wave("square", 2000, 35, rng)])
    ref = ClaSS(ClaSSConfig(d=800))
    ref_cps = ref.run(series)

    cls = ClaSS(ClaSSConfig(d=800))
    for i, x in enumerate(series):
        cls.update(float(x))
        if i % 700 == 699:
            cls = pickle.loads(pickle.dumps(cls))
    assert cls.change_points == ref_cps


def test_change_points_strictly_increasing_and_in_range():
    rng = np.random.default_rng(10)
    segs = [_wave("sine", 1500, 18, rng), _wave("saw", 1500, 40, rng),
            _wave("square", 1500, 22, rng)]
    series = np.concatenate(segs)
    cls = ClaSS(ClaSSConfig(d=900))
    cps = cls.run(series)
    assert cps == sorted(cps)
    assert all(0 < c < len(series) for c in cps)


@pytest.mark.parametrize("params,error", [
    ({"d": 5}, ValueError),
    ({"d": 100, "w": 2}, ValueError),
    ({"score": "accuracy"}, TypeError),   # not a ClaSSConfig field
], ids=["d-too-small", "w-too-small", "removed-field"])
def test_unusable_config_fails_at_construction(params, error):
    with pytest.raises(error):
        ClaSS(**params)


REFS = Path(__file__).resolve().parents[2] / "perfbench" / "refs"


def test_reproduces_committed_corpus_references():
    """The exactness oracle: on the five shortest ``tssb-lite`` series of
    the corpus, ClaSS(d=1000) emits the committed reference CPs, each
    after the same number of fed points."""
    from repro.datasets.archives import make_corpus

    refs = json.loads((REFS / "corpus_d1000.json").read_text())
    assert refs["d"] == 1000 and refs["corpus_seed"] == 0
    recs = [r for r in make_corpus(0) if r.dataset == "tssb-lite"]
    recs = sorted(recs, key=lambda r: (r.n, r.series_id))[:5]
    n_cps = 0
    for rec in recs:
        cls = ClaSS(ClaSSConfig(d=1000))
        emitted = [[i + 1, cp] for i, v in enumerate(rec.values)
                   for cp in cls.feed([v])]
        assert emitted == refs["series"][rec.series_id], rec.series_id
        n_cps += len(emitted)
    assert n_cps > 0
