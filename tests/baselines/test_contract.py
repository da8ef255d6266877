"""Interface contract tests shared by all nine detectors."""
import numpy as np
import pytest

from repro.methods import METHODS, make_detector, sweep_params

ALL = list(METHODS)

# Cheap, corpus-scale parameters per detector for contract tests.
PARAMS = {
    "class": {"d": 600},
    "floss": {"d": 600, "w": 20},
    "window": {"w": 20},
    "changefinder": {"threshold": 10.0},
    "newma": {"w": 20},
    "bocd": {},
    "ddm": {"drift_level": 3.0},
    "hddm": {"drift_confidence": 1e-6},
    "adwin": {},
}


def _shift_series(n=1600, seed=0):
    rng = np.random.default_rng(seed)
    a = np.sin(2 * np.pi * np.arange(n) / 20) + 0.1 * rng.standard_normal(n)
    b = rng.standard_normal(n) * 0.5 + 3.0
    return np.concatenate([a, b])


def test_registry_has_paper_methods():
    # Table 2's row order, which run_table2 keeps.
    assert ALL == ["bocd", "floss", "class", "changefinder", "window",
                   "newma", "adwin", "ddm", "hddm"]


@pytest.mark.parametrize("name", ALL)
def test_every_table_config_constructs(name):
    """Every configuration the harnesses build: Table 3's fixed params
    with each grid value (plus an annotated ``w`` where the method takes
    one) and every Table 2 sweep cell."""
    spec = METHODS[name]
    width = {"w": 25} if spec.width else {}
    configs = [{**spec.params, **width, knob: v}
               for knob, values in spec.grid.items() for v in values]
    configs.append({**spec.params, **width})
    configs += [sweep_params(name, d) for d in (500, 1000, 2000, 4000)]
    for params in configs:
        assert type(make_detector(name, **params)) is spec.detector, params


def test_make_detector_unknown_raises():
    with pytest.raises(ValueError):
        make_detector("nope")


@pytest.mark.parametrize("name", ALL)
def test_contract_positions_valid(name):
    det = make_detector(name, **PARAMS[name])
    series = _shift_series()
    cps = det.feed(series)
    assert cps == sorted(cps)
    assert len(set(cps)) == len(cps)
    assert all(0 <= c <= len(series) for c in cps)
    assert det.change_points == cps
    assert det.pos == len(series)


@pytest.mark.parametrize("name", ALL)
def test_update_returns_reported_cp(name):
    det = make_detector(name, **PARAMS[name])
    series = _shift_series(seed=1)
    reported = []
    for x in series:
        cp = det.update(float(x))
        if cp is not None:
            reported.append(cp)
    assert reported == det.change_points


@pytest.mark.parametrize("name", ALL)
def test_deterministic(name):
    series = _shift_series(seed=2)
    a = make_detector(name, **PARAMS[name]).feed(series)
    b = make_detector(name, **PARAMS[name]).feed(series)
    assert a == b


@pytest.mark.parametrize("name", ALL)
def test_constant_stream_silent(name):
    det = make_detector(name, **PARAMS[name])
    assert det.feed(np.ones(1500)) == []


@pytest.mark.parametrize("name", ALL)
def test_chunked_feed_is_lossless(name):
    """``feed`` over uneven chunks returns every CP exactly once, in the
    same order as ``change_points`` and a one-shot ``feed``."""
    series = _shift_series(seed=4)
    det = make_detector(name, **PARAMS[name])
    bounds = [0, 1, 7, 450, 601, 1599, 1600, 2333, len(series)]
    fed = [det.feed(series[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    got = [cp for chunk in fed for cp in chunk]
    assert got  # every detector finds the shift at 1600
    assert got == det.change_points
    assert got == make_detector(name, **PARAMS[name]).feed(series)
    assert det.pos == len(series)


# Constructor options that every caller left at their default; each is
# now a module constant of its detector, and passing it is an error.
REMOVED_OPTIONS = {
    "adwin": {"max_buckets": 5, "min_n": 32, "excl": 32},
    "bocd": {"mu0": 0.0, "kappa0": 1.0, "alpha0": 1.0, "beta0": 1.0,
             "trunc": 1e-9, "excl": 50},
    "changefinder": {"order": 3, "smooth": 7, "excl": 200},
    "ddm": {"min_n": 30, "z_thresh": 2.0, "excl": 30},
    "hddm": {"z_thresh": 2.0, "min_n": 30, "excl": 30},
    "floss": {"excl_factor": 5, "patience": 10},
    "window": {"factor": 10, "order": 3, "excl": None},
    "newma": {"n_features": 64, "history": 1000, "excl": None, "seed": 7},
}


@pytest.mark.parametrize("name,kw,value", [
    (name, kw, value) for name, opts in REMOVED_OPTIONS.items()
    for kw, value in opts.items()])
def test_removed_option_raises(name, kw, value):
    with pytest.raises(TypeError):
        make_detector(name, **{kw: value})


# Every competitor's CPs on a six-segment stream whose odd segments sit
# 2.0 higher, so the drift detectors (ADWIN, DDM, HDDM) fire too.
# Recorded before the CP-spacing rule moved into StreamingDetector;
# ADWIN, BOCD, ChangeFinder and FLOSS report more CPs without it.
GOLDEN = {
    "adwin": [1999, 3999, 5999, 7991, 9983],
    "bocd": [1999, 7991, 10183, 10275, 10367, 10459, 10551, 10643, 10735,
             10827, 10919, 11011, 11103, 11195, 11287, 11379, 11471, 11563,
             11655, 11747, 11839, 11931],
    "changefinder": [2000, 8000],
    "ddm": [2003, 4002, 6006, 8017, 10028],
    "floss": [1991, 3963, 5859, 6000, 7960, 9996],
    "hddm": [2029, 4029, 6029, 8030, 10054],
    "newma": [2003, 4003, 5688, 7182, 9464],
    "window": [11240],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_competitor_golden_change_points(name):
    from repro.harness.throughput import _test_stream

    series, _ = _test_stream(12000, 0)
    series = series + 2.0 * (np.arange(len(series)) // 2000 % 2)
    assert make_detector(name, **PARAMS[name]).feed(series) == GOLDEN[name]
