"""Monte Carlo estimates with standard errors, plus uniformity diagnostics.

The Kolmogorov-Smirnov distance to a uniform law is computed here in numpy,
by the same formula and in the same order of operations as
scipy.stats.kstest(x, "uniform").statistic, so the two agree bitwise; scipy
is needed only by the tests that check that agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass
class EstimateWithError:
    """A sample mean, its standard error, and the sample count behind it."""

    value: float
    std_error: float
    n: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EstimateWithError":
        x = np.asarray(samples, dtype=float).ravel()
        n = x.size
        if n == 0:
            raise ValueError("no samples")
        se = float(np.std(x, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return cls(float(np.mean(x)), se, n)

    def within(self, target: float, n_se: float, atol: float = 0.0) -> bool:
        return abs(self.value - target) <= n_se * self.std_error + atol

    def combined_se(self, other: "EstimateWithError") -> float:
        return float(np.hypot(self.std_error, other.std_error))

    def __str__(self) -> str:
        return f"{self.value:.6g} +/- {self.std_error:.2g} (n={self.n})"


def ks_uniform_statistic(samples: np.ndarray, width: float = TWO_PI) -> float:
    """Two-sided Kolmogorov-Smirnov distance of samples to Uniform[0, width):
    D = max over the sorted u_(i) of i/n - u_(i) and u_(i) - (i-1)/n, with
    u = samples / width clipped to [0, 1] as the uniform CDF clips it.  A NaN
    sample gives NaN."""
    u = np.clip(np.sort(np.asarray(samples, dtype=float).ravel() / width), 0.0, 1.0)
    n = u.size
    if n == 0:
        raise ValueError("no samples")
    d_plus = (np.arange(1.0, n + 1) / n - u).max()
    d_minus = (u - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


def ks_critical_value(n: int, significance: float = 0.05) -> float:
    """Asymptotic one-sample KS critical value c(alpha)/sqrt(n)."""
    c = np.sqrt(-0.5 * np.log(significance / 2.0))
    return float(c / np.sqrt(n))
