"""Monte Carlo summaries with normal-approximation confidence intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Z_95 = 1.96


@dataclass(frozen=True)
class EstimateWithCI:
    """Sample mean with standard error and a 95 percent interval."""

    mean: float
    stderr: float
    ci_low: float
    ci_high: float
    trials: int

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "trials": self.trials,
        }


def summarize(values: np.ndarray) -> EstimateWithCI:
    """Summary of per-trial values; the values must arrive in trial order so
    that pairwise summation makes the result schedule-independent.  The mean
    and the sample standard deviation are the sums ``np.mean`` and
    ``np.std(ddof=1)`` take, in their order: the pairwise sum over n, then
    the pairwise sum of the squared deviations from that mean over n - 1,
    with none of their dispatch."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        raise ValueError("cannot summarize zero trials")
    mean = float(np.add.reduce(values) / n)
    if n > 1:
        dev = values - mean
        np.square(dev, out=dev)
        stderr = math.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n)
    else:
        stderr = 0.0
    return EstimateWithCI(mean, stderr, mean - Z_95 * stderr, mean + Z_95 * stderr, n)


def classify(lhs: EstimateWithCI, rhs: EstimateWithCI, direction: str) -> str:
    """Ternary verdict for 'lhs <direction> rhs' with direction 'le' or 'ge'.

    consistent: intervals disjoint and ordered as claimed; violated: disjoint
    and ordered the wrong way; inconclusive: overlapping intervals.
    """
    if direction not in ("le", "ge"):
        raise ValueError("direction must be 'le' or 'ge'")
    lo, hi = (lhs, rhs) if direction == "le" else (rhs, lhs)
    if lo.ci_high < hi.ci_low:
        return "consistent"
    if lo.ci_low > hi.ci_high:
        return "violated"
    return "inconclusive"
