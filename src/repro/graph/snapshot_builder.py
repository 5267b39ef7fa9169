"""Side-effect-free snapshot building for pipelined temporal execution.

This module is the seam that lets snapshot construction run off the
critical path (ROADMAP item 2, MSPipe-style pipelining):

* :class:`UpdateCursor` — the mutable core of a GPMA-backed temporal graph:
  one PMA positioned at one timestamp, with Algorithm 2's update-batch
  replay and its restore points (the DTDG base graph, kept from
  construction, and the state cache).  :class:`~repro.graph.gpma_graph.GPMAGraph` owns
  one as its main-thread position; a :class:`SnapshotBuilder` owns a
  *private* one, so building snapshot ``t+k`` never repositions the PMA the
  training loop is reading.
* :class:`SnapshotVersionMap` — the shared, lock-protected per-timestamp
  version bookkeeping.  Versions are content identity: whichever cursor
  realizes a timestamp first allocates its version, and because both
  cursors replay the same immutable DTDG update batches, a
  ``(timestamp, version)`` key produced by the builder is bitwise
  interchangeable with the one the main cursor would produce.
* :class:`SnapshotCache` — the ``(timestamp, version)`` LRU of built CSR
  artifacts, now thread-safe and the **single handoff point** between the
  prefetch worker and the main thread.  Worker-built snapshots go into a
  bounded *staging* area (they never evict LRU entries the LIFO backward
  walk still needs); the first main-thread consumption promotes them into
  the LRU proper and reports a ``prefetch_hit``.
* :func:`build_snapshot_arrays` — the pure relabel + Algorithm 3 function
  both the main rebuild path and the builder call: PMA storage in,
  immutable :class:`BuiltSnapshot` out, no shared state touched.  One
  compaction of the PMA, O(E + N) after it; :func:`gapped_csr_arrays` is the
  paper's gapped input shape, kept for the tests of Algorithm 3 as written.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.sanitizer import new_condition, new_lock
from repro.graph.csr import CSR
from repro.graph.dtdg import DTDG
from repro.graph.labels import decode_edges, encode_edges
from repro.pma import PackedMemoryArray, SPACE_KEY

__all__ = [
    "BuiltSnapshot",
    "SnapshotVersionMap",
    "SnapshotCache",
    "UpdateCursor",
    "SnapshotBuilder",
    "build_snapshot_arrays",
    "gapped_csr_arrays",
]

_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class BuiltSnapshot:
    """One immutable built snapshot: the artifacts Algorithm 3 produces.

    Instances are never mutated after construction; the arrays inside are
    shared freely across threads (the worker builds, the main thread reads).
    """

    fwd: CSR
    bwd: CSR
    in_deg: np.ndarray
    out_deg: np.ndarray


@dataclass
class _CursorState:
    """A saved PMA state (Algorithm 2's graph cache)."""

    time: int
    version: int
    keys: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    n_items: int


class SnapshotVersionMap:
    """Thread-safe stable per-timestamp snapshot versions.

    Every timestamp gets a version the first time its content is realized
    — by *any* cursor.  No-op update batches inherit the previous
    timestamp's version (identical content); non-empty batches allocate
    monotonically, so a version is never reused for different content.
    Both the graph's main cursor and every builder cursor resolve versions
    here, which is what makes their ``(timestamp, version)`` keys
    interchangeable.
    """

    def __init__(self) -> None:
        self._lock = new_lock("SnapshotVersionMap._lock")
        self._versions: dict[int, int] = {0: 0}
        self._counter = 0

    def get(self, ts: int) -> int | None:
        """Version already assigned to ``ts`` (None if never realized)."""
        with self._lock:
            return self._versions.get(int(ts))

    def noop(self, ts_new: int, current_version: int) -> int:
        """Version for ``ts_new`` whose batch is empty: inherits ``current_version``."""
        with self._lock:
            return self._versions.setdefault(int(ts_new), int(current_version))

    def realized(self, ts_new: int) -> int:
        """Version for ``ts_new`` after applying a non-empty batch (allocates once)."""
        with self._lock:
            ver = self._versions.get(int(ts_new))
            if ver is None:
                self._counter += 1
                ver = self._counter
                self._versions[int(ts_new)] = ver
            return ver

    @property
    def counter(self) -> int:
        """Highest version allocated so far."""
        with self._lock:
            return self._counter

    def as_dict(self) -> dict[int, int]:
        """Copy of the timestamp -> version assignments."""
        with self._lock:
            return dict(self._versions)

    def restore(self, versions: dict[int, int], counter: int) -> None:
        """Replace the bookkeeping (checkpoint resume)."""
        with self._lock:
            self._versions = {int(t): int(v) for t, v in versions.items()}
            self._counter = int(counter)


class SnapshotCache:
    """Thread-safe ``(timestamp, version)`` LRU of :class:`BuiltSnapshot`\\ s.

    Two tiers:

    * the **LRU proper** — entries the main thread built or consumed,
      bounded by ``capacity`` (the PR 2 reuse cache, unchanged semantics);
    * the **staging area** — entries the prefetch worker built ahead of
      time.  Staged entries do not count against (or evict from) the LRU
      until the main thread consumes one, at which point it is promoted.
      Boundedness comes from the scheduler's queue, not from this dict.

    The in-flight set + condition variable let the main thread *wait* for a
    snapshot the worker is mid-build on instead of duplicating the build.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._lock = new_lock("SnapshotCache._lock")
        self._cond = new_condition(self._lock, "SnapshotCache._cond")
        self._lru: OrderedDict[tuple[int, int], BuiltSnapshot] = OrderedDict()
        self._staged: dict[tuple[int, int], BuiltSnapshot] = {}
        self._inflight: set[int] = set()
        #: total snapshots the worker ever staged (diagnostics)
        self.staged_total = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def _insert(self, key: tuple[int, int], snap: BuiltSnapshot) -> None:
        self._lru[key] = snap
        self._lru.move_to_end(key)
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)

    def get(self, key: tuple[int, int]) -> tuple[BuiltSnapshot | None, bool]:
        """Look up ``key`` -> ``(snapshot, from_prefetch)``.

        A staged (worker-built) entry is promoted into the LRU on its first
        consumption and reported with ``from_prefetch=True`` exactly once.
        """
        with self._lock:
            snap = self._lru.get(key)
            if snap is not None:
                self._lru.move_to_end(key)
                return snap, False
            snap = self._staged.pop(key, None)
            if snap is not None:
                self._insert(key, snap)
                return snap, True
            return None, False

    def put(self, key: tuple[int, int], snap: BuiltSnapshot) -> None:
        """Main-thread insert (a synchronous build)."""
        with self._lock:
            self._staged.pop(key, None)
            self._insert(key, snap)

    def stage(self, key: tuple[int, int], snap: BuiltSnapshot) -> None:
        """Worker-thread insert: parked in staging until first consumption."""
        with self._lock:
            if key not in self._lru:
                self._staged[key] = snap
                self.staged_total += 1

    def contains(self, key: tuple[int, int]) -> bool:
        """Whether ``key`` is already available (LRU or staged)."""
        with self._lock:
            return key in self._lru or key in self._staged

    # -- in-flight coordination -----------------------------------------
    def mark_inflight(self, ts: int) -> None:
        """Worker: announce a build for timestamp ``ts`` has started."""
        with self._cond:
            self._inflight.add(int(ts))

    def clear_inflight(self, ts: int) -> None:
        """Worker: the build for ``ts`` finished (or was abandoned)."""
        with self._cond:
            self._inflight.discard(int(ts))
            self._cond.notify_all()

    def inflight(self, ts: int) -> bool:
        """Whether a build for timestamp ``ts`` is currently running."""
        with self._lock:
            return int(ts) in self._inflight

    def wait_not_inflight(self, ts: int, timeout: float = 60.0) -> bool:
        """Block until no build for ``ts`` is in flight (True) or timeout."""
        with self._cond:
            return self._cond.wait_for(lambda: int(ts) not in self._inflight, timeout=timeout)

    def clear(self) -> None:
        """Drop every cached and staged entry (in-flight marks are the
        worker's to clear)."""
        with self._lock:
            self._lru.clear()
            self._staged.clear()


# ---------------------------------------------------------------------------
# Pure snapshot materialization (relabel + Algorithm 3)
# ---------------------------------------------------------------------------
def gapped_csr_arrays(pma: PackedMemoryArray, num_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gapped CSR view over one PMA's raw storage.

    Returns ``(row_offset, col_indices, eids)`` where ``row_offset[i]``
    indexes the first slot that could hold an edge of source ``i`` and gap
    slots carry ``SPACE`` — the exact input shape of Algorithm 3.  Pure:
    reads the PMA, writes nothing.
    """
    keys, _ = pma.gapped_arrays()
    valid = keys != SPACE_KEY
    # Backward-fill gaps with the next valid key so the slot array is
    # non-decreasing and boundaries can be found with searchsorted.
    filled = np.where(valid, keys, _INT64_MAX)
    backfilled = np.minimum.accumulate(filled[::-1])[::-1]
    boundaries = np.arange(num_nodes + 1, dtype=np.int64) * np.int64(num_nodes)
    row_offset = np.searchsorted(backfilled, boundaries, side="left").astype(np.int64)
    cols = np.where(valid, keys - (keys // num_nodes) * num_nodes, SPACE_KEY)
    # Relabel (Algorithm 2 line 8): label = rank among surviving edges.
    eids = np.full(len(keys), -1, dtype=np.int64)
    eids[valid] = np.arange(int(valid.sum()), dtype=np.int64)
    return row_offset, cols, eids


def build_snapshot_arrays(
    pma: PackedMemoryArray, num_nodes: int, sort_by_degree: bool, alloc
) -> BuiltSnapshot:
    """Relabel + Algorithm 3 over one PMA → an immutable :class:`BuiltSnapshot`.

    One compaction (``export_items``) yields the sorted keys, hence the
    out-CSR; the in-CSR is its stable counting-sort transpose.

    Pure with respect to shared graph state: the only inputs are the given
    PMA's storage (read), and the only side effect is byte accounting on
    ``alloc`` (whose tracker is lock-protected) — safe to run on a worker
    thread against a private cursor's PMA.
    """
    from repro.graph.reverse import reverse_gpma_vectorized

    keys, _ = pma.export_items()
    src, dst = decode_edges(keys, num_nodes)
    num_edges = len(keys)
    labels = np.arange(num_edges, dtype=np.int64)

    out_deg = np.bincount(src, minlength=num_nodes).astype(np.int64)
    in_deg = np.bincount(dst, minlength=num_nodes).astype(np.int64)

    # Backward (out-)CSR falls straight out of the sorted keys.
    bwd_row = alloc.zeros(num_nodes + 1, dtype=np.int64, tag="gpma.bwd.row")
    np.cumsum(out_deg, out=bwd_row[1:])
    bwd_col = alloc.adopt(dst, tag="gpma.bwd.col")
    bwd_eid = alloc.adopt(labels, tag="gpma.bwd.eid")
    bwd_ids = (
        np.argsort(-out_deg, kind="stable").astype(np.int64)
        if sort_by_degree
        else np.arange(num_nodes, dtype=np.int64)
    )
    bwd = CSR(bwd_row, bwd_col, bwd_eid, alloc.adopt(bwd_ids, tag="gpma.bwd.ids"))

    # Forward (reverse) CSR: Algorithm 3's counting sort over that compact
    # out-CSR (the gaps were dropped once, by export_items).
    f_row, f_col, f_eid = reverse_gpma_vectorized(bwd_row, dst, labels, num_nodes)
    fwd_ids = (
        np.argsort(-in_deg, kind="stable").astype(np.int64)
        if sort_by_degree
        else np.arange(num_nodes, dtype=np.int64)
    )
    fwd = CSR(
        alloc.adopt(f_row, tag="gpma.fwd.row"),
        alloc.adopt(f_col, tag="gpma.fwd.col"),
        alloc.adopt(f_eid, tag="gpma.fwd.eid"),
        alloc.adopt(fwd_ids, tag="gpma.fwd.ids"),
    )
    return BuiltSnapshot(fwd, bwd, alloc.adopt(in_deg, tag="gpma.in_deg"), alloc.adopt(out_deg, tag="gpma.out_deg"))


# ---------------------------------------------------------------------------
# The mutable update-cursor core (Algorithm 2)
# ---------------------------------------------------------------------------
class UpdateCursor:
    """One PMA positioned at one timestamp, with Algorithm 2 replay.

    Single-threaded by design: the graph's main cursor is driven by the
    training loop, a builder's private cursor by the prefetch worker.  The
    only cross-thread structure a cursor touches is the shared
    :class:`SnapshotVersionMap`.
    """

    def __init__(
        self,
        dtdg: DTDG,
        versions: SnapshotVersionMap,
        enable_cache: bool = True,
        on_noop: Callable[[], None] | None = None,
    ) -> None:
        self.dtdg = dtdg
        self.num_nodes = dtdg.num_nodes
        self.versions = versions
        self.enable_cache = enable_cache
        self.on_noop = on_noop
        src, dst = dtdg.snapshot_edges(0)
        keys = encode_edges(src, dst, dtdg.num_nodes)
        self.pma = PackedMemoryArray(capacity=max(64, 2 * len(keys)))
        self.pma.insert_batch(keys, keys)
        self.time = 0
        self.version = 0
        #: True when the PMA content changed since the consumer's last build
        #: (the consumer clears it after installing/building artifacts).
        self.dirty = True
        self._cache: _CursorState | None = None
        # The DTDG base graph is a restore point the cursor always has: the
        # per-epoch wrap T-1 -> 0 is one copy, not T-1 reverse batches.
        self._base = self._saved_state() if enable_cache else None
        # Counters for the ablation benchmarks.
        self.update_batches_applied = 0
        self.cache_restores = 0

    # -- Algorithm 2 lines 1-5 / 10 --------------------------------------
    def _saved_state(self) -> _CursorState:
        return _CursorState(
            time=self.time,
            version=self.version,
            keys=self.pma.keys.copy(),
            values=self.pma.values.copy(),
            counts=self.pma.segment_counts(),
            n_items=self.pma.n_items,
        )

    def cache_state(self) -> None:
        """Save the current PMA state (Algorithm 2 line 10)."""
        if self.enable_cache:
            self._cache = self._saved_state()

    def drop_cache(self) -> None:
        """Invalidate the saved PMA state (corruption fault / resume)."""
        self._cache = None

    def _restore(self, saved: _CursorState) -> None:
        if saved.keys.shape != self.pma.keys.shape:
            # Capacity changed since the state was saved; rebuild geometry.
            self.pma._alloc_arrays(len(saved.keys))
        self.pma.keys[...] = saved.keys
        self.pma.values[...] = saved.values
        self.pma._counts[...] = saved.counts
        self.pma.n_items = saved.n_items
        self.pma._refresh_seg_min()
        self.time = saved.time
        # The restored snapshot keeps the version it was assigned when first
        # realized, so its built CSRs remain valid cache entries.
        self.version = saved.version
        self.dirty = True
        self.cache_restores += 1

    def advance(self, t: int) -> None:
        """Position at ``t``, applying update batches (with cache retrieval)."""
        if not (0 <= t < self.dtdg.num_timestamps):
            raise IndexError(f"timestamp {t} out of range [0, {self.dtdg.num_timestamps})")
        if t == self.time:
            return
        # Algorithm 2 lines 1-5: retrieving a saved graph is worthwhile
        # whenever it is a closer starting point than the current position —
        # updates are reversible, so this holds for rewinds past the cache
        # just as much as for forward jumps onto it.
        if self.enable_cache:
            saved = min(
                (s for s in (self._base, self._cache) if s is not None),
                key=lambda s: abs(t - s.time),
            )
            if abs(t - saved.time) < abs(t - self.time):
                self._restore(saved)
        while self.time < t:
            self._apply_update(self.dtdg.updates[self.time + 1], forward=True, ts_new=self.time + 1)
            self.time += 1
        while self.time > t:
            self._apply_update(self.dtdg.updates[self.time], forward=False, ts_new=self.time - 1)
            self.time -= 1

    def _apply_update(self, update, forward: bool, ts_new: int) -> None:
        """One ``edge_update_t`` batch (Algorithm 2 line 7) arriving at ``ts_new``.

        No-op batches (zero additions and zero deletions) neither dirty the
        snapshot nor change its version: the content at ``ts_new`` is
        bitwise identical to the current one, so the built CSRs stay valid.
        """
        upd = update if forward else update.reversed()
        if len(upd.del_src) == 0 and len(upd.add_src) == 0:
            if self.on_noop is not None:
                self.on_noop()
            self.version = self.versions.noop(ts_new, self.version)
            return
        if len(upd.del_src):
            self.pma.delete_batch(encode_edges(upd.del_src, upd.del_dst, self.num_nodes))
        if len(upd.add_src):
            keys = encode_edges(upd.add_src, upd.add_dst, self.num_nodes)
            self.pma.insert_batch(keys, keys)
        self.update_batches_applied += 1
        self.version = self.versions.realized(ts_new)
        self.dirty = True


# ---------------------------------------------------------------------------
# The side-effect-free snapshot builder
# ---------------------------------------------------------------------------
class SnapshotBuilder:
    """Builds :class:`BuiltSnapshot`\\ s without touching the owning graph's PMA.

    Thread-safety contract: a builder shares only immutable or
    lock-protected structures with its graph — the DTDG (read-only), the
    :class:`SnapshotVersionMap`, and (via the scheduler) the
    :class:`SnapshotCache`.  All mutable positioning lives in the builder's
    *private* :class:`UpdateCursor`, so :meth:`build` may run concurrently
    with main-thread training.  One builder instance must itself be driven
    from a single thread at a time (the prefetch worker).

    The builder observes the graph's *builder epoch*: checkpoint resume
    rewrites the version map, at which point every existing private cursor
    is stale and is rebuilt from the DTDG on next use.
    """

    def __init__(self, graph) -> None:
        self._graph = graph
        self.dtdg: DTDG = graph.dtdg
        self.num_nodes: int = graph.num_nodes
        self.sort_by_degree: bool = graph.sort_by_degree
        self._versions: SnapshotVersionMap = graph._versions
        self._cursor: UpdateCursor | None = None
        self._epoch: int | None = None
        #: snapshots actually materialized by this builder (diagnostics)
        self.builds = 0

    def _ensure_cursor(self) -> UpdateCursor:
        epoch = getattr(self._graph, "_builder_epoch", 0)
        if self._cursor is None or self._epoch != epoch:
            # enable_cache: the per-epoch wraparound (prefetching t=0 for the
            # next epoch while the last timestamps compute) restores the
            # cursor's base state instead of replaying in reverse.
            self._cursor = UpdateCursor(self.dtdg, self._versions, enable_cache=True)
            self._epoch = epoch
        return self._cursor

    def key_for(self, ts: int) -> tuple[int, int]:
        """The ``(timestamp, version)`` cache key for ``ts`` (advances the
        private cursor; resolves the shared version map)."""
        cursor = self._ensure_cursor()
        cursor.advance(int(ts))
        return (int(ts), cursor.version)

    def build(self, ts: int) -> tuple[tuple[int, int], BuiltSnapshot]:
        """Materialize the snapshot at ``ts`` → ``(key, BuiltSnapshot)``.

        Positions the private cursor, then runs the pure relabel +
        Algorithm 3 function over its PMA.  Never touches the owning
        graph's PMA, current build, or non-thread-safe bookkeeping.
        """
        from repro.device import current_device

        cursor = self._ensure_cursor()
        cursor.advance(int(ts))
        key = (int(ts), cursor.version)
        snap = build_snapshot_arrays(
            cursor.pma, self.num_nodes, self.sort_by_degree, current_device().alloc
        )
        cursor.dirty = False
        self.builds += 1
        return key, snap
