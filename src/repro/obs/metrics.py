"""Labeled metric families and their Prometheus text rendering.

The device totals (:mod:`repro.obs.spine`) record everything, latency
histogram rows included; this module is how one read of them is rendered:

* :class:`Counter` / :class:`Gauge` — labeled scalar families.
* :class:`Histogram` — fixed log-bucket histograms with Prometheus
  cumulative-bucket semantics (``_bucket{le=...}`` including ``+Inf``,
  ``_sum``, ``_count``) and quantile estimation by linear interpolation
  inside the winning bucket.
* :class:`MetricRegistry` — thread-safe, insertion-ordered family
  registry.  The exporter builds a throwaway one per scrape, so the
  post-hoc dump and the live ``/metrics`` scrape render through the single
  code path :meth:`MetricRegistry.render` and can never drift.

Everything here is stdlib-only and safe to call from worker threads: each
child holds its own lock.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Iterator

from repro.analysis.sanitizer import new_lock

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricRegistry",
    "log_buckets",
    "prom_escape",
]


def prom_escape(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def log_buckets(start: float = 1e-6, factor: float = 2.0, count: int = 26) -> tuple[float, ...]:
    """Geometric bucket upper bounds: ``start * factor**i`` for i in [0, count).

    The defaults span 1µs .. ~33.5s in factor-of-2 steps — wide enough for
    everything from a single kernel launch to a full epoch, at a fixed
    26-counter cost per labeled child.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("log_buckets needs start > 0, factor > 1, count >= 1")
    return tuple(start * factor ** i for i in range(count))


#: The registry-wide default latency buckets (seconds).
DEFAULT_BUCKETS = log_buckets()


def _fmt(value: float) -> str:
    """Prometheus sample value: integral values as bare integers (``0``, not
    ``0.0``), others at full round-trip precision."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_str(key: _LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{prom_escape(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """A monotonically increasing value (one labeled child of a family)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = new_lock("Counter._lock")
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (one labeled child of a family)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = new_lock("Gauge._lock")
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket streaming histogram (one labeled child of a family).

    ``bounds`` are *upper* bucket bounds; an observation lands in the first
    bucket whose bound is >= the value, or in the implicit ``+Inf`` bucket
    (the last of ``counts``).  ``count`` is the sum of the bucket counts and
    rendering is cumulative per Prometheus semantics, so the ``+Inf`` bucket
    always equals ``_count``.
    """

    __slots__ = ("_lock", "bounds", "counts", "sum")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be non-empty and strictly increasing")
        self._lock = new_lock("Histogram._lock")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0

    @property
    def count(self) -> int:
        """Observations: the sum of the bucket counts."""
        return sum(self.counts)

    def observe(self, value: float) -> None:
        """Record one observation (thread-safe, O(log buckets))."""
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value

    def set(self, counts: list[int], total: float) -> None:
        """Replace the state with per-bucket ``counts`` (``+Inf`` last) and
        their ``total``: how a scrape renders rows the spine recorded."""
        with self._lock:
            self.counts = list(counts)
            self.sum = total

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending with ``(inf, count)``."""
        return self.snapshot()[0]

    def snapshot(self) -> tuple[list[tuple[float, int]], float, int]:
        """``(cumulative, sum, count)`` captured under one lock."""
        with self._lock:
            counts = list(self.counts)
            seconds = self.sum
        cumulative = list(zip((*self.bounds, math.inf), accumulate(counts)))
        return cumulative, seconds, cumulative[-1][1]

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation inside the winning bucket, so the estimate is
        within one bucket width of the true value.  Observations beyond the
        last finite bound clamp to it (the ``+Inf`` bucket has no width to
        interpolate over).  Returns ``nan`` with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile requires 0 <= q <= 1")
        with self._lock:
            counts = list(self.counts)
        total = sum(counts)
        if total == 0:
            return math.nan
        rank = q * total
        running = 0.0
        prev_bound = 0.0
        for bound, c in zip(self.bounds, counts):
            if running + c >= rank and c > 0:
                frac = (rank - running) / c
                return prev_bound + frac * (bound - prev_bound)
            running += c
            prev_bound = bound
        # Rank falls in +Inf: clamp to the last finite bound.
        return self.bounds[-1] if counts[-1] else prev_bound


class MetricFamily:
    """One named metric with labeled children (``kind`` in counter/gauge/histogram)."""

    def __init__(self, name: str, kind: str, help_text: str = "",
                 buckets: tuple[float, ...] | None = None) -> None:
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.buckets = tuple(buckets) if buckets else (DEFAULT_BUCKETS if kind == "histogram" else None)
        self._lock = new_lock("MetricFamily._lock")
        self._children: dict[_LabelKey, Counter | Gauge | Histogram] = {}

    def labels(self, **labels: str) -> Counter | Gauge | Histogram:
        """The child for this label set (created on first use)."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if self.kind == "counter":
                        child = Counter()
                    elif self.kind == "gauge":
                        child = Gauge()
                    else:
                        child = Histogram(self.buckets)
                    self._children[key] = child
        return child

    def child_items(self) -> list[tuple[_LabelKey, Counter | Gauge | Histogram]]:
        """Children sorted by label key (deterministic render order)."""
        with self._lock:
            return sorted(self._children.items())

    def render_lines(self) -> list[str]:
        """Prometheus text lines for this family (HELP/TYPE + samples)."""
        lines = [f"# HELP {self.name} {self.help_text}", f"# TYPE {self.name} {self.kind}"]
        for key, child in self.child_items():
            if self.kind == "histogram":
                assert isinstance(child, Histogram)
                cumulative, total_sum, total_count = child.snapshot()
                for bound, cum in cumulative:
                    le = "+Inf" if math.isinf(bound) else _fmt(bound)
                    le_label = 'le="%s"' % le
                    lines.append(f"{self.name}_bucket{_label_str(key, le_label)} {cum}")
                lines.append(f"{self.name}_sum{_label_str(key)} {_fmt(total_sum)}")
                lines.append(f"{self.name}_count{_label_str(key)} {total_count}")
            else:
                lines.append(f"{self.name}{_label_str(key)} {_fmt(child.value)}")
        return lines


class MetricRegistry:
    """Thread-safe, insertion-ordered registry of metric families."""

    def __init__(self) -> None:
        self._lock = new_lock("MetricRegistry._lock")
        self._families: dict[str, MetricFamily] = {}

    def _family(self, name: str, kind: str, help_text: str,
                buckets: tuple[float, ...] | None = None) -> MetricFamily:
        fam = self._families.get(name)
        if fam is None:
            with self._lock:
                fam = self._families.get(name)
                if fam is None:
                    fam = MetricFamily(name, kind, help_text, buckets)
                    self._families[name] = fam
                    return fam
        if fam.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}, not {kind}"
            )
        if kind == "histogram" and buckets and tuple(buckets) != fam.buckets:
            raise ValueError(f"metric {name!r} already registered with different buckets")
        return fam

    def counter(self, name: str, help_text: str = "") -> MetricFamily:
        """Get-or-create a counter family."""
        return self._family(name, "counter", help_text)

    def gauge(self, name: str, help_text: str = "") -> MetricFamily:
        """Get-or-create a gauge family."""
        return self._family(name, "gauge", help_text)

    def histogram(self, name: str, help_text: str = "",
                  buckets: tuple[float, ...] | None = None) -> MetricFamily:
        """Get-or-create a histogram family (default log buckets, see
        :data:`DEFAULT_BUCKETS`)."""
        return self._family(name, "histogram", help_text, buckets)

    def get(self, name: str) -> MetricFamily | None:
        """The family registered under ``name``, or None."""
        return self._families.get(name)

    def families(self) -> list[MetricFamily]:
        """Families in registration order."""
        with self._lock:
            return list(self._families.values())

    def __iter__(self) -> Iterator[MetricFamily]:
        return iter(self.families())

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: list[str] = []
        for fam in self.families():
            lines.extend(fam.render_lines())
        return "\n".join(lines) + "\n"
