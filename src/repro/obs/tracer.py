"""Nested-span tracing with a zero-overhead-when-disabled default.

The paper's evaluation lives on *breakdowns* (Figure 9 splits DTDG time into
GNN processing vs. graph updates; Figures 6/8 report resident memory), and
every perf PR since has argued through the same kind of decomposition.  The
:class:`Tracer` makes that decomposition first-class: instrumented code opens
**spans** (``epoch > sequence > timestamp[t] > {graph_update, forward/layer,
backward, optimizer}``) and each completed span records

* wall time (start + duration, monotonic clock relative to the tracer),
* allocator residency at entry/exit plus the delta,
* device profiler *counter deltas* over the span (cache hits, noop skips),
* arbitrary user args (timestamp, kernel name, byte counts, ...).

Completed spans also fold into two aggregates maintained on the fly:

* :meth:`Tracer.aggregate_by_cat` — **self time** per category (a span's
  duration minus its children's), so nested same-category spans never double
  count and the ``gnn`` / ``graph_update`` totals are directly comparable to
  the device profiler's innermost-phase attribution;
* :meth:`Tracer.aggregate_by_name` — inclusive duration + call count per
  span name (the right view for leaf spans like kernel launches).

**Zero overhead when disabled.**  The process default is a
:class:`NullTracer` whose :meth:`~NullTracer.span` returns one shared no-op
context manager; instrumented hot paths pay a global read, a method call,
and a ``with`` enter/exit — no allocation, no branching on config.  Real
tracers are installed per run with :func:`use_tracer`.

Exception safety: ``span()`` is a context manager, so a span is closed even
when the body raises (the event is tagged ``error=<ExcType>``); a mid-
sequence failure therefore never leaves dangling spans behind
(``open_span_count`` returns to zero, and the Chrome export keeps matched
B/E pairs).
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import TYPE_CHECKING, Any, Iterator

from repro.analysis.sanitizer import new_lock
from repro.util.ctxstack import ContextStack

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.device.device import Device

__all__ = ["SpanEvent", "Tracer", "NullTracer", "NULL_TRACER", "current_tracer", "use_tracer"]


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


class _OpenSpan:
    __slots__ = ("name", "cat", "start", "child_seconds", "mem_enter", "counters_enter", "args")

    def __init__(self, name: str, cat: str, start: float, mem_enter: int,
                 counters_enter: dict[str, int], args: dict[str, Any]) -> None:
        self.name = name
        self.cat = cat
        self.start = start
        self.child_seconds = 0.0
        self.mem_enter = mem_enter
        self.counters_enter = counters_enter
        self.args = args


class _NullSpan:
    """Shared reusable no-op context manager (the disabled-tracer fast path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Kept deliberately tiny — this object sits on every hot path of the
    framework by default, and ``benchmarks/test_micro_obs_overhead.py``
    gates its per-span cost against the training step it instruments.
    """

    enabled = False

    def span(self, name: str, cat: str = "", **args: Any) -> _NullSpan:
        """No-op span (one shared context manager, no allocation)."""
        return _NULL_SPAN

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        """No-op instant event."""

    @property
    def open_span_count(self) -> int:
        """Always 0: a disabled tracer opens nothing."""
        return 0


NULL_TRACER = NullTracer()


class Tracer:
    """Collects nested spans with memory/counter capture at boundaries.

    Parameters
    ----------
    name:
        Display name, recorded in exports and manifests.
    keep_events:
        When False the tracer maintains only the aggregates — the mode the
        Figure 9 runner uses, where per-event retention would be waste.
    max_events:
        Retention cap; completed events beyond it are dropped (counted in
        :attr:`dropped_events`) so a runaway loop cannot exhaust memory.
        Aggregates keep accumulating regardless.
    """

    enabled = True

    def __init__(self, name: str = "run", keep_events: bool = True, max_events: int = 1_000_000) -> None:
        self.name = name
        self.keep_events = keep_events
        self.max_events = int(max_events)
        self.events: list[SpanEvent] = []
        self.dropped_events = 0
        self._epoch = time.perf_counter()
        # Open-span stacks are per-thread: a span opened on a worker thread
        # (the serving dispatcher) nests under that thread's own spans and
        # can never corrupt the main thread's stack.  Completed events and
        # the two aggregates are shared, merged under one lock.
        self._tls = threading.local()
        self._lock = new_lock("Tracer._lock")
        self._main_ident = threading.get_ident()
        # thread ident -> display lane (1 = creating thread, 2+ = workers)
        self._lanes: dict[int, int] = {self._main_ident: 1}
        self._next_lane = 2
        # cat -> accumulated self seconds (duration minus child time)
        self._cat_seconds: dict[str, float] = {}
        # name -> [calls, inclusive seconds]
        self._name_totals: dict[str, list[float]] = {}
        self.max_depth = 0

    # ------------------------------------------------------------------
    def _device(self) -> "Device":
        from repro.device import current_device

        return current_device()

    def _open_stack(self) -> list[_OpenSpan]:
        stack = getattr(self._tls, "open", None)
        if stack is None:
            stack = []
            self._tls.open = stack
        return stack

    def _lane(self) -> int:
        ident = threading.get_ident()
        lane = self._lanes.get(ident)
        if lane is None:
            with self._lock:
                lane = self._lanes.setdefault(ident, self._next_lane)
                if lane == self._next_lane:
                    self._next_lane += 1
        return lane

    @contextlib.contextmanager
    def span(self, name: str, cat: str = "", **args: Any) -> Iterator[None]:
        """Open a span; closes (and records) on exit even if the body raises."""
        device = self._device()
        open_span = _OpenSpan(
            name,
            cat,
            time.perf_counter(),
            device.tracker.current_bytes,
            device.profiler.counters_snapshot(),
            args,
        )
        stack = self._open_stack()
        stack.append(open_span)
        if len(stack) > self.max_depth:
            self.max_depth = len(stack)
        try:
            yield
        except BaseException as exc:
            open_span.args["error"] = type(exc).__name__
            raise
        finally:
            self._close(open_span, device)

    def _close(self, open_span: _OpenSpan, device: "Device") -> None:
        end = time.perf_counter()
        stack = self._open_stack()
        # Close everything down to (and including) this span: a child left
        # open by non-contextmanager misuse must not orphan the stack.
        while stack:
            top = stack.pop()
            if top is open_span:
                break
            top.args.setdefault("error", "unclosed-child")
            self._record_closed(top, end, device, stack, depth=len(stack) + 1)
        self._record_closed(open_span, end, device, stack, depth=len(stack))

    def _record_closed(self, span: _OpenSpan, end: float, device: "Device",
                       stack: list[_OpenSpan], depth: int) -> None:
        dur = end - span.start
        self_seconds = max(0.0, dur - span.child_seconds)
        if stack:
            stack[-1].child_seconds += dur
        key = span.cat or span.name
        keep = self.keep_events
        if keep:
            args = span.args
            mem_exit = device.tracker.current_bytes
            if mem_exit != span.mem_enter:
                args["mem_delta_bytes"] = mem_exit - span.mem_enter
            args["mem_bytes"] = mem_exit
            counters_exit = device.profiler.counters_snapshot()
            for cname, value in counters_exit.items():
                delta = value - span.counters_enter.get(cname, 0)
                if delta:
                    args[f"d_{cname}"] = delta
            event = SpanEvent(span.name, span.cat, span.start - self._epoch, dur, depth, args, self._lane())
        with self._lock:
            self._cat_seconds[key] = self._cat_seconds.get(key, 0.0) + self_seconds
            tot = self._name_totals.get(span.name)
            if tot is None:
                self._name_totals[span.name] = [1, dur]
            else:
                tot[0] += 1
                tot[1] += dur
            if not keep:
                return
            if len(self.events) >= self.max_events:
                self.dropped_events += 1
                return
            self.events.append(event)

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        """Record a point-in-time event (e.g. a state-stack push)."""
        if not self.keep_events:
            return
        event = SpanEvent(
            name, cat, time.perf_counter() - self._epoch, None, len(self._open_stack()), args, self._lane()
        )
        with self._lock:
            if len(self.events) >= self.max_events:
                self.dropped_events += 1
                return
            self.events.append(event)

    # ------------------------------------------------------------------
    @property
    def open_span_count(self) -> int:
        """Spans open on the *calling thread* (0 after any balanced — or
        failed — region); other threads' open spans are invisible here."""
        return len(self._open_stack())

    def aggregate_by_cat(self) -> dict[str, float]:
        """Accumulated *self* seconds per category (no double counting)."""
        with self._lock:
            return dict(self._cat_seconds)

    def aggregate_by_name(self) -> dict[str, dict[str, float]]:
        """Per-span-name call count and inclusive seconds."""
        with self._lock:
            return {
                name: {"calls": calls, "seconds": seconds}
                for name, (calls, seconds) in self._name_totals.items()
            }

    def span_events(self) -> list[SpanEvent]:
        """Completed duration events only (instants excluded)."""
        return [e for e in self.events if e.dur is not None]


# ---------------------------------------------------------------------------
# Current-tracer plumbing (shared ContextStack; mirrors repro.device.use_device)
# ---------------------------------------------------------------------------
_STACK: ContextStack[Tracer | NullTracer] = ContextStack(NULL_TRACER)


def current_tracer() -> Tracer | NullTracer:
    """The innermost active tracer (the no-op :data:`NULL_TRACER` by default).

    Per-thread: a worker thread traces nothing unless a tracer is installed
    on that thread with :func:`use_tracer`.
    """
    return _STACK.current()


@contextlib.contextmanager
def use_tracer(tracer: Tracer | NullTracer | None) -> Iterator[Tracer | NullTracer]:
    """Run a block with ``tracer`` active; ``None`` keeps tracing disabled."""
    t = tracer if tracer is not None else NULL_TRACER
    with _STACK.use(t):
        yield t
