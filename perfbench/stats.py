"""Summary statistics for the benchmark's samples."""

from __future__ import annotations

import math
import statistics


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between
    closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int, want: float = 99.0, min_beyond: int = 10
                    ) -> float:
    """The highest percentile <= ``want`` that has at least ``min_beyond``
    of ``n`` samples above it.

    ``(100 - q) / 100 * n`` samples lie beyond the q-th percentile, so
    the tail rests on ten samples only when ``q <= 100 * (1 - 10 / n)``.
    With ``min_beyond`` samples or fewer no percentile above the minimum
    qualifies, and the median is returned."""
    if n <= min_beyond:
        return 50.0
    q = 100.0 * (1.0 - min_beyond / n)
    return max(50.0, min(want, math.floor(q * 10) / 10))


def latency_summary(samples_ms: list[float]) -> dict:
    """Median and tail latency, with the percentile the tail figure is
    and the sample count it rests on."""
    q = tail_percentile(len(samples_ms))
    return {
        "p50_ms": percentile(samples_ms, 50.0),
        "tail_ms": percentile(samples_ms, q),
        "tail_percentile": q,
        "samples": len(samples_ms),
    }


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
