"""Order statistics used by every workload.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it, so a "p99" of 50 samples is never printed as a tail.
"""

from __future__ import annotations

import math
import statistics

#: samples that must lie beyond a percentile before it is reported
MIN_BEYOND = 10


def beyond(count: int, q: float) -> int:
    """Samples strictly past the nearest-rank ``q``-quantile of ``count``."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    return count - math.ceil(q * count)


def percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q``-quantile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(samples)
    if not ordered or beyond(len(ordered), q) < MIN_BEYOND:
        return None
    return ordered[math.ceil(q * len(ordered)) - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf

