"""Phase timing for the Figure 9 experiment.

Figure 9 of the paper splits total DTDG processing time into *GNN processing*
and *graph update* time.  :class:`Profiler` accumulates wall-clock time per
named phase; the executor wraps kernel launches in the ``"gnn"`` phase, the
GPMA/Naive snapshot machinery wraps updates in the ``"graph_update"`` phase,
and the plan cache wraps trace→codegen pipeline runs in the ``"compile"``
phase — so the compile-once/run-every-timestamp amortization is directly
measurable (a warm cache records zero compile time).

Beyond timers, the profiler also accumulates named event **counters**.  The
snapshot-reuse machinery reports through them: ``csr_cache_hits`` /
``csr_cache_misses`` (positionings served by the graph's installed build /
Algorithm-3 builds), ``noop_updates_skipped`` (empty
update batches that left the snapshot version untouched), and
``ctx_cache_hits`` / ``ctx_cache_misses`` (executor-level
:class:`~repro.compiler.runtime.GraphContext` reuse).  Counters are
device-scoped like the timers, so bench runners can report them per
measured cell.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.analysis.sanitizer import new_lock

__all__ = ["PHASES", "COUNTERS", "PhaseTimer", "Profiler"]

#: The phases the framework itself reports: one-time compilation (plan
#: cache misses), GNN kernel execution, dynamic-graph updates and dataset
#: preprocessing.  User code may time arbitrary extra phases.
PHASES = ("compile", "gnn", "graph_update", "preprocess")

#: The event counters the framework itself reports: snapshot/context reuse
#: plus the resilience ladder (injected faults, kernel retries, engine
#: fallbacks, cache-corruption rebuilds, aborted sequences).  User code may
#: count arbitrary extra events.
COUNTERS = (
    "csr_cache_hits",
    "csr_cache_misses",
    "noop_updates_skipped",
    "ctx_cache_hits",
    "ctx_cache_misses",
    "faults_injected",
    "kernel_retries",
    "engine_fallbacks",
    "cache_fault_rebuilds",
    "sequence_aborts",
)


class PhaseTimer:
    """Accumulated wall-clock time and invocation count for one phase."""

    __slots__ = ("name", "total_seconds", "calls")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total_seconds = 0.0
        self.calls = 0

    def add(self, seconds: float) -> None:
        """Accumulate one timed interval."""
        self.total_seconds += seconds
        self.calls += 1


class Profiler:
    """Per-phase wall-clock accumulator.

    Nested phases are attributed to the innermost phase only, so "graph
    update" time inside a training step is not double counted as "gnn" time.

    Thread-safe: the nesting stack is per-thread (a phase opened on the
    serving dispatcher pauses only that thread's enclosing phase), while the
    accumulated timers and event counters are shared across threads under a
    lock — so concurrent phases on two threads both accumulate wall time,
    which is exactly what overlap should look like in the totals.
    """

    def __init__(self) -> None:
        self._phases: dict[str, PhaseTimer] = {}
        self._tls = threading.local()
        self._lock = new_lock("Profiler._lock")
        self._counters: dict[str, int] = {}
        self.enabled = True

    def _stack(self) -> list[tuple[str, float]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _timer(self, name: str) -> PhaseTimer:
        timer = self._phases.get(name)
        if timer is None:
            timer = self._phases.setdefault(name, PhaseTimer(name))
        return timer

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a block under ``name`` (nested time attributed innermost)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        stack = self._stack()
        # Pause the enclosing phase so nested time is attributed once.
        if stack:
            outer_name, outer_start = stack[-1]
            with self._lock:
                self._timer(outer_name).total_seconds += start - outer_start
        stack.append((name, start))
        try:
            yield
        finally:
            end = time.perf_counter()
            stack = self._stack()
            # reset() inside an open phase clears the stack; the interval
            # being unwound belongs to the discarded pre-reset accounting,
            # so it is dropped rather than crashing on an empty pop.
            if stack:
                inner_name, inner_start = stack.pop()
                with self._lock:
                    timer = self._timer(inner_name)
                    timer.total_seconds += end - inner_start
                    timer.calls += 1
                if stack:
                    outer_name, _ = stack[-1]
                    stack[-1] = (outer_name, end)

    def seconds(self, name: str) -> float:
        """Accumulated seconds for a phase (0 if never entered)."""
        timer = self._phases.get(name)
        return timer.total_seconds if timer else 0.0

    def calls(self, name: str) -> int:
        """Number of completed intervals for a phase."""
        timer = self._phases.get(name)
        return timer.calls if timer else 0

    def phase_seconds(self) -> dict[str, float]:
        """Accumulated seconds for every framework phase (see :data:`PHASES`)."""
        return {name: self.seconds(name) for name in PHASES}

    # -- event counters --------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Accumulate ``n`` occurrences of the named event (thread-safe)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        """Accumulated count for an event (0 if never counted)."""
        return self._counters.get(name, 0)

    def counters(self) -> dict[str, int]:
        """Accumulated counts for every framework counter (see :data:`COUNTERS`)."""
        return {name: self.counter(name) for name in COUNTERS}

    def counters_snapshot(self) -> dict[str, int]:
        """Copy of *every* counter seen so far (framework and user events).

        The tracer snapshots this at span boundaries to report counter
        deltas per span; unlike :meth:`counters` it includes ad-hoc events
        and omits never-counted framework names.
        """
        with self._lock:
            return dict(self._counters)

    def breakdown(self) -> dict[str, float]:
        """Fraction of total profiled time per phase (sums to 1.0)."""
        total = sum(t.total_seconds for t in self._phases.values())
        if total <= 0:
            return {}
        return {name: t.total_seconds / total for name, t in self._phases.items()}

    def reset(self) -> None:
        """Clear all phases and counters (the calling thread's open-phase
        nesting is discarded too; other threads' stacks unwind harmlessly
        against the cleared timers)."""
        with self._lock:
            self._phases.clear()
            self._counters.clear()
        self._stack().clear()
