"""Summary statistics with the benchmark's reporting rules.

A median is reported for any non-empty sample.  A tail percentile is
reported only when at least ``MIN_BEYOND`` samples lie beyond it: with
fewer, the value is one or two individual observations and moves from
run to run with whichever request happened to stall.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """The sample median (mean of the middle two for even sizes)."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q < 100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail(values: Sequence[float], q: float) -> float | None:
    """The ``q``-th percentile, or None when fewer than ten lie beyond."""
    if beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def highest_tail(
    values: Sequence[float], candidates: Sequence[float] = (99.9, 99.0, 90.0)
) -> tuple[float, float] | None:
    """``(q, value)`` for the highest candidate percentile the sample
    supports under the ten-beyond rule, or None."""
    for q in candidates:
        value = tail(values, q)
        if value is not None:
            return q, value
    return None


def describe_tail(name: str, values: Sequence[float]) -> str:
    """``"<name> p<q> <value> ms (n=...)"`` for the highest supported tail."""
    found = highest_tail(values)
    if found is None:
        return f"{name}: no tail percentile (n={len(values)})"
    return f"{name} p{found[0]:g} {found[1]:.3f} ms (n={len(values)})"


def union_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total
