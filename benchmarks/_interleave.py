"""One timer for A/B gates: two callables timed in interleaved rounds.

A gate that times one side and then the other lets box drift between the
two readings decide it.  Here every round times both sides back to back,
alternating which side runs first, and the gate reads the median of the
per-round ratios, so drift slower than a round cancels out.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable


def interleaved_ratio(measured: Callable[[], object], reference: Callable[[], object],
                      rounds: int = 15, calls: int = 1) -> float:
    """Median over ``rounds`` of (``calls`` x ``measured``) / (``calls`` x ``reference``)."""
    def seconds(fn: Callable[[], object]) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    ratios = []
    for r in range(rounds):
        if r % 2:
            ref = seconds(reference)
            ratios.append(seconds(measured) / ref)
        else:
            ratios.append(seconds(measured) / seconds(reference))
    return statistics.median(ratios)
