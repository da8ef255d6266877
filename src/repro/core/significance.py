"""Change-point significance testing (paper Section 3.3).

The global maximum of the ClaSP profile is accepted as a change point
only if a two-sided Wilcoxon rank-sum test on the predicted
cross-validation labels left vs right of the split rejects the null at a
(very conservative; ClaSS uses 1e-50) significance level.

With *binary* samples the rank-sum statistic is a closed form of the
2x2 (side x label) counts: all zeros share one midrank and all ones
another, so no per-element ranking is needed — this is what keeps the
test O(1) per evaluation and O(d) overall (paper Section 3.6).

scipy is not available in this environment, so the normal approximation
with tie correction is implemented directly; ``math.erfc`` is accurate
far beyond the 1e-50 regime the paper operates in.

Sample-size control: the streaming setting evaluates the test with a
variable number of labels, biasing p-values downward for long suffixes
(paper cites [57]).  As in the paper, 1k labels are resampled with
replacement, preserving the left/right split proportions and each
side's label distribution.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["rank_sum_test", "resampled_rank_sum_test"]


def rank_sum_test(l0: int, l1: int, r0: int, r1: int) -> float:
    """Two-sided Wilcoxon rank-sum p-value for binary samples given the
    side-by-label counts (left zeros/ones, right zeros/ones).

    Uses midranks for the two massive tie groups and the tie-corrected
    normal approximation.  Returns 1.0 for degenerate inputs (an empty
    side, or all labels identical — zero variance).
    """
    nl, nr = l0 + l1, r0 + r1
    n = nl + nr
    n0, n1 = l0 + r0, l1 + r1
    if nl == 0 or nr == 0 or n0 == 0 or n1 == 0:
        return 1.0
    # Midranks: zeros occupy ranks 1..n0 -> (n0+1)/2; ones occupy
    # n0+1..n -> n0 + (n1+1)/2.
    rank0 = (n0 + 1) / 2.0
    rank1 = n0 + (n1 + 1) / 2.0
    w_stat = l0 * rank0 + l1 * rank1          # rank sum of the left side
    mean = nl * (n + 1) / 2.0
    tie_term = ((n0**3 - n0) + (n1**3 - n1)) / (n * (n - 1))
    var = nl * nr / 12.0 * ((n + 1) - tie_term)
    if var <= 0:
        return 1.0
    z = (w_stat - mean) / math.sqrt(var)
    # two-sided: p = erfc(|z| / sqrt(2))
    return float(math.erfc(abs(z) / math.sqrt(2.0)))


def resampled_rank_sum_test(
    l0: int, l1: int, r0: int, r1: int,
    sample_size: int, rng: np.random.Generator,
) -> float:
    """Rank-sum p-value on a fixed-size resample of the labels.

    ``sample_size`` labels are drawn with replacement: the left/right
    proportions are preserved exactly and each side's labels are drawn
    i.i.d. from that side's empirical label distribution (binomial
    draws — equivalent to with-replacement sampling of binary labels).
    A sample at least as large as the data falls back to the exact
    counts.
    """
    nl, nr = l0 + l1, r0 + r1
    n = nl + nr
    if n <= sample_size or nl == 0 or nr == 0:
        return rank_sum_test(l0, l1, r0, r1)
    nl_s = int(round(sample_size * nl / n))
    nl_s = min(max(nl_s, 1), sample_size - 1)
    nr_s = sample_size - nl_s
    l1_s = int(rng.binomial(nl_s, l1 / nl))
    r1_s = int(rng.binomial(nr_s, r1 / nr))
    return rank_sum_test(nl_s - l1_s, l1_s, nr_s - r1_s, r1_s)
