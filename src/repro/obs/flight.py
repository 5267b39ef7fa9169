"""Bounded flight recorder: the last N events, dumped when things go wrong.

The tracer answers "what happened during this run?" — but only if you
asked for a trace up front, and only after the run ends.  The flight
recorder answers the incident-response question: *what were the last
things the process did before it died?*  It keeps a per-thread ring
buffer of the most recent ``capacity`` events (timestamp marks, fault
injections, span-level notes, counter bumps) at O(1) append cost, and
**drains** the merged window into a ``flight.jsonl`` artifact whenever a
failure edge fires:

* :meth:`~repro.core.executor.TemporalExecutor.abort_sequence` (a
  mid-sequence teardown),
* a degradation-ladder engine fallback (``repro.core.module``),
* a :class:`~repro.resilience.faults.SimulatedKill` (boundary or
  mid-sequence — the injector drains *before* raising, since a boundary
  kill never reaches ``abort_sequence``).

Like the tracer, a recorder is something a user *installs*; instrumented
code never calls it.  ``repro train --flight-recorder out.jsonl`` and
``repro chaos --flight-recorder out.jsonl`` install one with
:func:`~repro.obs.spine.use_flight_recorder`, and while it is installed on
a thread :mod:`repro.obs.spine` records every site whose table row names a
flight kind, and drains on the rows that name a reason.  Installation is
per thread: a worker records nothing unless handed the recorder
(:func:`~repro.obs.spine.use_installed`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any


__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Per-thread ring buffers of recent events, drained to JSONL on failure.

    Parameters
    ----------
    capacity:
        Events kept *per thread*; older events fall off the ring.
    path:
        Default artifact path for :meth:`drain` (a drain can override it).
    """

    def __init__(self, capacity: int = 256, path: str | os.PathLike | None = None) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.path = os.fspath(path) if path is not None else None
        self._lock = threading.Lock()
        # One (ring, recorded-count cell) pair per thread, registered by
        # object on the thread's first record and never keyed by the thread
        # ident, which CPython reuses: a later thread must not overwrite a
        # dead one's ring.  The count is a per-thread cell summed on read
        # because a shared `+= 1` from the lock-free record() path would
        # lose updates under contention.
        self._threads: list[tuple[deque[dict[str, Any]], list[int]]] = []
        self._tls = threading.local()
        self.drains: list[dict[str, Any]] = []

    def _ring(self) -> deque[dict[str, Any]]:
        ring = getattr(self._tls, "ring", None)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            cell = [0]
            self._tls.ring = ring
            self._tls.count = cell
            with self._lock:
                self._threads.append((ring, cell))
        return ring

    @property
    def total_recorded(self) -> int:
        """Events recorded across all threads (exact, summed under lock)."""
        with self._lock:
            return sum(cell[0] for _, cell in self._threads)

    def record(self, kind: str, name: str, **fields: Any) -> None:
        """Append one event to the calling thread's ring (O(1), lock-free).

        ``kind`` is a coarse taxonomy — ``"mark"`` (progress breadcrumbs
        like timestamp boundaries), ``"fault"`` (injected faults),
        ``"span"`` (notable span edges), ``"counter"`` (counter bumps).
        """
        event = {
            "ts": time.time(),
            "tid": threading.get_ident(),
            "kind": kind,
            "name": name,
        }
        if fields:
            event.update(fields)
        self._ring().append(event)
        self._tls.count[0] += 1  # thread-private cell; no lost updates

    def events(self) -> list[dict[str, Any]]:
        """The merged window across all threads, oldest first."""
        with self._lock:
            rings = [ring for ring, _ in self._threads]
        merged: list[dict[str, Any]] = []
        for ring in rings:
            merged.extend(ring)
        merged.sort(key=lambda e: e["ts"])
        return merged

    def drain(self, reason: str, path: str | os.PathLike | None = None) -> int:
        """Append the current window to the JSONL artifact; returns #events.

        The artifact is append-mode JSONL: each drain writes one header
        record (``{"flight_drain": reason, ...}``) followed by the merged
        event window, so a chaos run with several kills yields several
        windows in one file.  With no path configured the drain is still
        accounted (so reports can assert the recorder fired) but nothing
        is written.
        """
        events = self.events()
        target = os.fspath(path) if path is not None else self.path
        self.drains.append({
            "reason": reason,
            "events": len(events),
            "path": target,
            "ts": time.time(),
        })
        if target is None:
            return len(events)
        parent = os.path.dirname(os.path.abspath(target))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with self._lock:  # one drain writes at a time; records stay lock-free
            with open(target, "a") as fh:
                header = {
                    "flight_drain": reason,
                    "ts": time.time(),
                    "events": len(events),
                    "capacity": self.capacity,
                }
                fh.write(json.dumps(header) + "\n")
                for event in events:
                    fh.write(json.dumps(event) + "\n")
        return len(events)

    def drain_count(self) -> int:
        return len(self.drains)
