"""Small statistics helpers shared by the benchmark and its report."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc


def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, with weights from the Beta
    distribution of the sample quantile at p.  Unlike a single order
    statistic it stays steady where p falls between two groups of samples,
    as it does when several methods or radii share one latency list.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("percentile of no samples")
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    q = p / 100
    weights = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def beyond(values, p: float) -> int:
    """How many samples lie beyond the p-th percentile's rank, ``n - ceil(p n / 100)``."""
    n = len(values)
    return n - math.ceil(p * n / 100)


def mean(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of no samples")
    return math.fsum(values) / len(values)
