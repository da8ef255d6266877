"""BOCD — Bayesian Online Changepoint Detection (Adams & MacKay 2007).

Maintains the posterior over the current *run length* (time since the
last CP) with a constant hazard rate and a Normal-Inverse-Gamma
conjugate model per run (unknown mean and variance, Student-t
predictive).  The update is O(n) in the number of tracked run lengths
(Table 2's O(n) — the only competitor whose per-point cost grows with
the stream), so run lengths with less mass than ``TRUNC`` are dropped
(standard practice; exact for the reported MAP runs).

CP reporting follows the paper's tuned rule: a drop of the MAP run
length exceeding ``drop_threshold`` (paper: 150 on their corpus) reports
the CP at ``t - r_MAP``.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.base import StreamingDetector

__all__ = ["BOCD"]

PRIOR = (0.0, 1.0, 1.0, 1.0)  # Normal-Inverse-Gamma (mu0, kappa0, alpha0, beta0)
TRUNC = 1e-9                  # run lengths with less posterior mass are dropped
EXCL = 50                     # minimum distance between two reported CPs

# Lanczos coefficients (g=7, n=9) — vectorised log-gamma for positive
# arguments, accurate to ~1e-13; scipy is unavailable in this
# environment and a per-element math.lgamma would dominate the O(n)
# posterior update.
_LANCZOS = np.array([
    0.99999999999980993, 676.5203681218851, -1259.1392167224028,
    771.32342877765313, -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
])


def _gammaln(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    x = a - 1.0
    s = np.full_like(x, _LANCZOS[0])
    for i in range(1, 9):
        s = s + _LANCZOS[i] / (x + i)
    t = x + 7.5
    return 0.5 * np.log(2 * np.pi) + (x + 0.5) * np.log(t) - t + np.log(s)


class BOCD(StreamingDetector):
    def __init__(self, hazard: float = 1.0 / 250.0,
                 drop_threshold: int = 150) -> None:
        super().__init__()
        self.h = hazard
        self.drop = drop_threshold
        self.r = np.array([1.0])            # run-length posterior
        self.mu, self.kappa, self.alpha, self.beta = (
            np.array([v]) for v in PRIOR)
        self.runs = np.array([0])           # run length per slot
        self._map_prev = 0

    @staticmethod
    def _t_logpdf(x, df, loc, scale):
        z = (x - loc) / scale
        return (_gammaln((df + 1) / 2) - _gammaln(df / 2)
                - 0.5 * np.log(np.pi * df) - np.log(scale)
                - (df + 1) / 2 * np.log1p(z * z / df))

    def _step(self, x: float) -> int | None:
        mu0, kappa0, alpha0, beta0 = PRIOR
        # Student-t predictive per run.
        df = 2 * self.alpha
        scale = np.sqrt(self.beta * (self.kappa + 1) / (self.alpha * self.kappa))
        logpred = self._t_logpdf(x, df, self.mu, scale)
        pred = np.exp(logpred - logpred.max())
        joint_growth = self.r * pred * (1 - self.h)
        cp_mass = float(np.sum(self.r * pred * self.h))
        new_r = np.concatenate(([cp_mass], joint_growth))
        new_r /= max(new_r.sum(), 1e-300)
        # Posterior parameter update (grow), fresh prior at run 0.
        mu_g = (self.kappa * self.mu + x) / (self.kappa + 1)
        beta_g = self.beta + self.kappa * (x - self.mu) ** 2 / (2 * (self.kappa + 1))
        self.mu = np.concatenate(([mu0], mu_g))
        self.kappa = np.concatenate(([kappa0], self.kappa + 1))
        self.alpha = np.concatenate(([alpha0], self.alpha + 0.5))
        self.beta = np.concatenate(([beta0], beta_g))
        self.runs = np.concatenate(([0], self.runs + 1))
        self.r = new_r
        # Truncate negligible-mass tails (keep slot 0 always).
        keep = self.r > TRUNC
        keep[0] = True
        if not keep.all():
            self.r = self.r[keep]
            self.r /= self.r.sum()
            self.mu, self.kappa = self.mu[keep], self.kappa[keep]
            self.alpha, self.beta = self.alpha[keep], self.beta[keep]
            self.runs = self.runs[keep]

        map_run = int(self.runs[int(np.argmax(self.r))])
        cp = None
        if (self._map_prev - map_run > self.drop
                and self._spaced(self.pos, EXCL)):
            cp = self.pos - map_run
        self._map_prev = map_run
        return cp
