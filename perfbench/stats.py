"""Percentiles with the sample-count rule, and run-to-run spread."""
from __future__ import annotations

import math
import statistics

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered) / 100) - 1, 0)]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` percentile."""
    return n - max(math.ceil(q * n / 100), 1)


def min_samples(q: float) -> int:
    """Fewest samples that leave ``MIN_BEYOND`` beyond the ``q`` percentile."""
    n = MIN_BEYOND
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
