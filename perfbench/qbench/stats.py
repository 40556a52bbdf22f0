"""Percentiles with the sample counts behind them."""

import math


def percentile(values, p):
    """Nearest-rank percentile (p in 0..100) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, p):
    """How many of n samples lie strictly above the nearest-rank p-th one."""
    return n - max(1, math.ceil(p / 100.0 * n)) if n else 0


def tail_supported(n, p, min_beyond=10):
    """A tail percentile is reported only with min_beyond samples past it."""
    return beyond(n, p) >= min_beyond


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
