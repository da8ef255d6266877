"""Cross-validation of the streaming pipeline against batch ClaSP."""
import numpy as np

from repro.core.clasp_batch import clasp_profile
from repro.core.scoring import cross_val_scores, pred_thresholds
from repro.core.streaming_knn import StreamingKNN


def test_streaming_state_reproduces_batch_clasp():
    """On a window that never slid, the profile computed from streaming
    k-NN state must equal the independent batch ClaSP."""
    rng = np.random.default_rng(0)
    n, w, k = 220, 10, 3
    T = np.concatenate([
        np.sin(2 * np.pi * np.arange(n // 2) / 11),
        np.sign(np.sin(2 * np.pi * np.arange(n - n // 2) / 17)),
    ]) + 0.05 * rng.standard_normal(n)
    s = StreamingKNN(d=500, w=w, k=k)
    for x in T:
        s.update(x)
    streaming_profile = cross_val_scores(
        pred_thresholds(s.N - s.start_abs))
    batch = clasp_profile(T, w, k)
    np.testing.assert_allclose(streaming_profile, batch, atol=1e-12)


def test_clasp_peak_near_true_change():
    rng = np.random.default_rng(1)
    half = 300
    T = np.concatenate([
        np.sin(2 * np.pi * np.arange(half) / 14),
        2 * ((np.arange(half) / 33) % 1) - 1,
    ]) + 0.05 * rng.standard_normal(2 * half)
    prof = clasp_profile(T, w=14, k=3)
    # peak split (in subsequence counts) near the true boundary,
    # ignoring the unstable borders
    margin = 60
    peak = margin + int(np.argmax(prof[margin:-margin])) + 1
    assert abs(peak - half) <= 40


def test_profile_length():
    rng = np.random.default_rng(2)
    T = rng.standard_normal(100)
    prof = clasp_profile(T, w=8, k=3)
    assert len(prof) == (100 - 8 + 1) - 1
