"""Mean-rank aggregation across data sets (paper Section 4.1).

The paper aggregates per-TS Covering scores by ranking the methods on
every series (rank 1 = best, ties get the average rank), averaging the
ranks, and assessing significance with the Nemenyi two-tailed test at
alpha = 0.05 (critical-difference diagrams).  The CD value is computed
here so the Table 3 job can report which leads are significant; the
diagram itself (Figure 5) is out of scope.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["mean_ranks", "wins_and_ties", "nemenyi_cd"]

# Studentised range statistic q_alpha(0.05) / sqrt(2) for k = 2..10
# (Demsar 2006, Table 5).
_Q_05 = {2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850,
         7: 2.949, 8: 3.031, 9: 3.102, 10: 3.164}


def mean_ranks(scores: pd.DataFrame) -> pd.Series:
    """Average rank per method from a (series x method) score frame.

    Higher scores are better; ties share the average rank.  Rows with
    any NaN keep the NaN method out of that row's ranking (the paper
    excludes BOCD from the archives, where it "did not finish").
    """
    ranks = scores.rank(axis=1, ascending=False, method="average")
    return ranks.mean(axis=0).sort_values()


def wins_and_ties(scores: pd.DataFrame) -> pd.Series:
    """Per method: number of series where it achieves the best score
    (ties counted for every tied method, as in the paper)."""
    best = scores.max(axis=1)
    return scores.eq(best, axis=0).sum(axis=0).sort_values(ascending=False)


def nemenyi_cd(n_methods: int, n_datasets: int) -> float:
    """Critical difference of mean ranks (Nemenyi, two-tailed, alpha =
    0.05)."""
    try:
        q = _Q_05[n_methods]
    except KeyError:
        raise ValueError(f"k={n_methods} out of tabulated range")
    return q * np.sqrt(n_methods * (n_methods + 1) / (6.0 * n_datasets))
