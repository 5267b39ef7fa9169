"""The trace event buffer: what a run's records look like post hoc.

A :class:`Tracer` is something a user *installs* (``use_tracer``) and
exports (Chrome trace, JSONL); instrumented code never calls it.  While one
is installed on a thread, :mod:`repro.obs.spine` appends one
:class:`SpanEvent` per closed interval and per emitted event of that thread:
wall time relative to the tracer, allocator residency at exit plus the delta
over the span, the event counters that moved over it, and the site's attrs.

The tracer keeps no aggregates of its own: self time per category and
calls + seconds per site are the device totals (``device.totals.read()``),
recorded whether or not a tracer is installed, so the trace, ``/metrics``
and Figure 9 cannot disagree.  An interval closes even when its body raises
(the event is tagged ``error=<ExcType>``), so the Chrome export keeps matched
B/E pairs after a mid-sequence failure.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.analysis.sanitizer import new_lock

__all__ = ["SpanEvent", "Tracer"]


class SpanEvent:
    """One completed span (or instant event, when ``dur`` is None).

    ``tid`` is the tracer-assigned lane of the thread that emitted the
    event: 1 for the thread that created the tracer (the training loop),
    2+ for worker threads (e.g. the serving dispatcher), so the Chrome
    export shows overlap as parallel tracks.
    """

    __slots__ = ("name", "cat", "ts", "dur", "depth", "args", "tid")

    def __init__(
        self, name: str, cat: str, ts: float, dur: float | None, depth: int, args: dict[str, Any], tid: int = 1
    ) -> None:
        self.name = name
        self.cat = cat
        self.ts = ts  # seconds since the tracer's epoch
        self.dur = dur  # seconds; None for instant events
        self.depth = depth
        self.args = args
        self.tid = tid

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-friendly form (the JSONL exporter's row)."""
        d: dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "ts_us": round(self.ts * 1e6, 3),
            "depth": self.depth,
        }
        if self.dur is not None:
            d["dur_us"] = round(self.dur * 1e6, 3)
        if self.tid != 1:
            d["tid"] = self.tid
        if self.args:
            d["args"] = self.args
        return d


class Tracer:
    """The event buffer of one traced run.

    Parameters
    ----------
    name:
        Display name, recorded in exports and manifests.
    max_events:
        Retention cap; events beyond it are dropped (counted in
        :attr:`dropped_events`) so a runaway loop cannot exhaust memory.
        The device totals keep accumulating regardless.
    """

    def __init__(self, name: str = "run", max_events: int = 1_000_000) -> None:
        self.name = name
        self.max_events = int(max_events)
        self.events: list[SpanEvent] = []
        self.dropped_events = 0
        #: ``perf_counter`` origin of every event's ``ts``
        self.epoch = time.perf_counter()
        self._lock = new_lock("Tracer._lock")
        # Display lanes are per-thread state registered by object (a
        # thread-local slot), never keyed by the reusable thread ident:
        # 1 = creating thread, 2+ = workers in arrival order.
        self._tls = threading.local()
        self._tls.lane = 1
        self._next_lane = 2

    def lane(self) -> int:
        """The calling thread's display lane (assigned on first use)."""
        try:
            lane: int = self._tls.lane
        except AttributeError:
            with self._lock:
                lane = self._tls.lane = self._next_lane
                self._next_lane += 1
        return lane

    def add(self, event: SpanEvent) -> None:
        """Append one event (the spine's entry point), honouring the cap."""
        with self._lock:
            if len(self.events) >= self.max_events:
                self.dropped_events += 1
            else:
                self.events.append(event)

    def span_events(self) -> list[SpanEvent]:
        """Completed duration events only (instants excluded)."""
        return [e for e in self.events if e.dur is not None]
