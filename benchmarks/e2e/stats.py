"""The few statistics ``run.py`` and ``compare.py`` report; standard library only."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["median", "percentile", "highest_supported_percentile", "spread"]

median = statistics.median


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    at = (len(ordered) - 1) * q / 100.0
    low = math.floor(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def highest_supported_percentile(n: int, candidates: Sequence[float] = (50, 90, 99, 99.9)) -> float | None:
    """The highest candidate percentile with at least ten samples beyond it."""
    supported = [q for q in candidates if n * (100.0 - q) >= 1000.0 - 1e-6]  # 99.9 is not exact in binary
    return max(supported) if supported else None


def spread(values: Sequence[float]) -> float | None:
    """Distance between the quartiles as a share of the median; None below two samples."""
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
