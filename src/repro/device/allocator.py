"""Byte-accurate device memory tracking.

The paper reports "Memory Consumed" for each framework (Figures 6 and 8,
Table III).  On real hardware that number comes from the CUDA allocator; here
every framework-visible array is registered with a :class:`MemoryTracker`,
which maintains the current and peak resident byte counts.

Arrays are tracked with :func:`weakref.finalize` so deallocation is observed
when the array is garbage collected — the same "free when the last reference
drops" semantics as a caching GPU allocator.  Scopes (:meth:`MemoryTracker.scope`)
allow a benchmark to measure the peak over a region, mirroring
``torch.cuda.reset_peak_memory_stats`` + ``max_memory_allocated``.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.resilience.faults import current_injector

__all__ = ["AllocationRecord", "MemoryTracker", "DeviceAllocator"]


@dataclass
class AllocationRecord:
    """A single live allocation as seen by the tracker."""

    nbytes: int
    tag: str
    alloc_id: int


class MemoryTracker:
    """Tracks live framework allocations and their high-water mark.

    The tracker deliberately counts *logical* framework allocations (tensors,
    CSR arrays, PMA storage, per-edge message buffers) rather than process
    RSS: the paper's comparison is about what each framework's design forces
    it to keep resident on the device, and RSS would be dominated by the
    Python interpreter.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current = 0
        self._peak = 0
        self._total_allocated = 0
        self._next_id = 0
        self._live: dict[int, AllocationRecord] = {}
        self._tracked_bases: set[int] = set()
        # Per-tag breakdown, maintained incrementally so traces can
        # attribute residency to state-stack vs CSR vs PMA storage without
        # walking every live record.
        self._current_by_tag: dict[str, int] = {}
        self._peak_by_tag: dict[str, int] = {}

    def _account_add(self, nbytes: int, tag: str) -> None:
        """Lock held: add ``nbytes`` to the global and per-tag accounting."""
        self._current += nbytes  # lockcheck: ok(caller holds _lock, see docstring)
        self._total_allocated += nbytes  # lockcheck: ok(caller holds _lock, see docstring)
        if self._current > self._peak:
            self._peak = self._current  # lockcheck: ok(caller holds _lock, see docstring)
        tag_bytes = self._current_by_tag.get(tag, 0) + nbytes
        self._current_by_tag[tag] = tag_bytes  # lockcheck: ok(caller holds _lock, see docstring)
        if tag_bytes > self._peak_by_tag.get(tag, 0):
            self._peak_by_tag[tag] = tag_bytes  # lockcheck: ok(caller holds _lock, see docstring)

    # ------------------------------------------------------------------
    # Core accounting
    # ------------------------------------------------------------------
    def track(self, array: np.ndarray, tag: str = "") -> np.ndarray:
        """Register ``array`` as device-resident until it is collected.

        Returns the array unchanged so calls can be chained inline.  Views
        are not double counted: only arrays that own their data are tracked.
        """
        base = array if array.base is None else array.base
        if not isinstance(base, np.ndarray):
            # A view over non-ndarray memory (e.g. a memoryview); count the
            # array itself as the owning allocation.
            base = array
        nbytes = int(base.nbytes)
        base_id = id(base)
        with self._lock:
            if base_id in self._tracked_bases:
                return array  # owning buffer already accounted for
            self._tracked_bases.add(base_id)
            alloc_id = self._next_id
            self._next_id += 1
            self._live[alloc_id] = AllocationRecord(nbytes, tag, alloc_id)
            self._account_add(nbytes, tag)
        weakref.finalize(base, self._release, alloc_id, base_id)
        return array

    def _release(self, alloc_id: int, base_id: int | None = None) -> None:
        with self._lock:
            rec = self._live.pop(alloc_id, None)
            if rec is not None:
                self._current -= rec.nbytes
                remaining = self._current_by_tag.get(rec.tag, 0) - rec.nbytes
                if remaining > 0:
                    self._current_by_tag[rec.tag] = remaining
                else:
                    self._current_by_tag.pop(rec.tag, None)
            if base_id is not None:
                self._tracked_bases.discard(base_id)

    def manual_add(self, nbytes: int, tag: str = "") -> int:
        """Account for memory not backed by a single ndarray (e.g. pooled
        buffers).  Returns a handle for :meth:`manual_release`."""
        with self._lock:
            alloc_id = self._next_id
            self._next_id += 1
            self._live[alloc_id] = AllocationRecord(int(nbytes), tag, alloc_id)
            self._account_add(int(nbytes), tag)
            return alloc_id

    def manual_release(self, handle: int) -> None:
        """Release a handle from :meth:`manual_add` (idempotent)."""
        self._release(handle)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_bytes(self) -> int:
        """Bytes currently resident."""
        return self._current

    @property
    def peak_bytes(self) -> int:
        """High-water mark since construction or :meth:`reset_peak`."""
        return self._peak

    @property
    def total_allocated_bytes(self) -> int:
        """Cumulative bytes ever tracked (never decreases)."""
        return self._total_allocated

    @property
    def live_allocation_count(self) -> int:
        """Number of live tracked allocations."""
        return len(self._live)

    def live_by_tag(self) -> dict[str, int]:
        """Current bytes grouped by allocation tag (diagnostics)."""
        return self.bytes_by_tag()

    def bytes_by_tag(self) -> dict[str, int]:
        """Current resident bytes per allocation tag (O(#tags))."""
        with self._lock:
            return dict(self._current_by_tag)

    def peak_bytes_by_tag(self) -> dict[str, int]:
        """Per-tag high-water marks since construction or :meth:`reset_peak`.

        Each tag's peak is its own maximum over time — the per-tag peaks
        generally do not sum to :attr:`peak_bytes`, which is the maximum of
        the *total*.
        """
        with self._lock:
            return dict(self._peak_by_tag)

    def reset_peak(self) -> None:
        """Reset the global and per-tag high-water marks to current residency."""
        with self._lock:
            self._peak = self._current
            self._peak_by_tag = {
                tag: nbytes for tag, nbytes in self._current_by_tag.items()
            }

    def scope(self) -> "MemoryScope":
        """Context manager measuring peak bytes over a region."""
        return MemoryScope(self)


class MemoryScope:
    """Measures the peak device memory used inside a ``with`` block.

    ``peak_bytes`` is the absolute high-water mark observed during the block;
    ``peak_delta_bytes`` subtracts the residency at entry, i.e. the extra
    memory the region required.
    """

    def __init__(self, tracker: MemoryTracker) -> None:
        self._tracker = tracker
        self.entry_bytes = 0
        self.peak_bytes = 0

    def __enter__(self) -> "MemoryScope":
        self.entry_bytes = self._tracker.current_bytes
        self._tracker.reset_peak()
        return self

    def __exit__(self, *exc: object) -> None:
        self.peak_bytes = self._tracker.peak_bytes

    @property
    def peak_delta_bytes(self) -> int:
        """Extra bytes the region required beyond its entry residency."""
        return max(0, self.peak_bytes - self.entry_bytes)


@dataclass
class DeviceAllocator:
    """Thin allocation facade over a :class:`MemoryTracker`.

    Framework code calls :meth:`empty`/:meth:`zeros`/:meth:`upload` instead
    of raw ``np.*`` constructors so every device-resident array is tracked —
    which also makes every allocation a potential firing point for a planned
    ``"oom"`` fault (:class:`~repro.resilience.faults.InjectedOOM`) when a
    fault plan is armed via ``use_fault_plan``.
    """

    tracker: MemoryTracker = field(default_factory=MemoryTracker)

    @staticmethod
    def _maybe_oom() -> None:
        injector = current_injector()
        if injector.enabled:
            injector.fire("oom")

    def empty(self, shape: tuple[int, ...] | int, dtype: np.dtype | type = np.float32, tag: str = "") -> np.ndarray:
        """Uninitialized tracked array."""
        self._maybe_oom()
        return self.tracker.track(np.empty(shape, dtype=dtype), tag)

    def zeros(self, shape: tuple[int, ...] | int, dtype: np.dtype | type = np.float32, tag: str = "") -> np.ndarray:
        """Zero-filled tracked array."""
        self._maybe_oom()
        return self.tracker.track(np.zeros(shape, dtype=dtype), tag)

    def full(self, shape: tuple[int, ...] | int, fill: float, dtype: np.dtype | type = np.float32, tag: str = "") -> np.ndarray:
        """Fill-value tracked array."""
        self._maybe_oom()
        return self.tracker.track(np.full(shape, fill, dtype=dtype), tag)

    def upload(self, host_array: np.ndarray, tag: str = "") -> np.ndarray:
        """Copy a host array to the "device" (always an independent copy).

        This is how host data (a dataset's arrays) gets on the device: the
        copy is counted until it is collected, and the host array never is.
        """
        self._maybe_oom()
        return self.tracker.track(np.array(host_array, order="C", copy=True), tag)

    def adopt(self, array: np.ndarray, tag: str = "") -> np.ndarray:
        """Track an array produced by a NumPy op without copying it.

        What is counted is the array's owning buffer, for as long as that
        buffer lives: adopting a view of a host array (a dataset's) counts
        the owner's whole buffer for the owner's lifetime.  Host data goes
        through :meth:`upload` instead.
        """
        self._maybe_oom()
        return self.tracker.track(array, tag)
