"""Algorithm 2 and the snapshot build behind :class:`~repro.graph.gpma_graph.GPMAGraph`.

* :class:`UpdateCursor` — the mutable core of a GPMA-backed temporal graph:
  one PMA positioned at one timestamp, with Algorithm 2's update-batch
  replay and its two restore points (the DTDG base graph, kept from
  construction, and the state slot ``cache_state`` fills at a sequence
  boundary).  It holds storage, not identity: what content a timestamp
  has is :meth:`DTDG.version_of <repro.graph.dtdg.DTDG.version_of>`.
* :func:`build_snapshot_arrays` — the pure relabel + Algorithm 3 function:
  PMA storage in, immutable :class:`BuiltSnapshot` out, no shared state
  touched.  One compaction of the PMA, O(E + N) after it;
  :func:`gapped_csr_arrays` is the paper's gapped input shape, kept for the
  tests of Algorithm 3 as written.

A graph keeps the one build it currently exposes; the only multi-entry
store of built snapshots is the executor's ``snapshot_key() ->
GraphContext`` LRU (docs/EXECUTOR.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSR
from repro.graph.dtdg import DTDG
from repro.graph.labels import decode_edges, encode_edges
from repro.pma import PackedMemoryArray, SPACE_KEY

__all__ = [
    "BuiltSnapshot",
    "UpdateCursor",
    "build_snapshot_arrays",
    "gapped_csr_arrays",
]

_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class BuiltSnapshot:
    """One immutable built snapshot: the artifacts Algorithm 3 produces.

    Instances are never mutated after construction, so the graph that
    built one and every context made from it share the arrays.
    """

    fwd: CSR
    bwd: CSR
    in_deg: np.ndarray
    out_deg: np.ndarray


@dataclass
class _CursorState:
    """A saved PMA state (Algorithm 2's graph cache)."""

    time: int
    keys: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    n_items: int


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

    Pure with respect to graph state: the only input is the given PMA's
    storage (read), the only side effect byte accounting on ``alloc``.
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

    A PMA, a time and two restore points.  Nothing here is synchronised: a
    cursor is driven only by the code that owns its graph.
    """

    def __init__(self, dtdg: DTDG, enable_cache: bool = True) -> None:
        self.dtdg = dtdg
        self.num_nodes = dtdg.num_nodes
        self.enable_cache = enable_cache
        src, dst = dtdg.snapshot_edges(0)
        keys = encode_edges(src, dst, dtdg.num_nodes)
        self.pma = PackedMemoryArray(capacity=max(64, 2 * len(keys)))
        self.pma.insert_batch(keys, keys)
        self.time = 0
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
        """Invalidate the saved PMA state (corruption fault)."""
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
            self._apply_update(self.dtdg.updates[self.time + 1], forward=True)
            self.time += 1
        while self.time > t:
            self._apply_update(self.dtdg.updates[self.time], forward=False)
            self.time -= 1

    def _apply_update(self, update, forward: bool) -> None:
        """One ``edge_update_t`` batch (Algorithm 2 line 7); a no-op batch
        (zero additions and zero deletions) leaves the PMA untouched."""
        if update.num_changes == 0:
            return
        upd = update if forward else update.reversed()
        if len(upd.del_src):
            self.pma.delete_batch(encode_edges(upd.del_src, upd.del_dst, self.num_nodes))
        if len(upd.add_src):
            keys = encode_edges(upd.add_src, upd.add_dst, self.num_nodes)
            self.pma.insert_batch(keys, keys)
        self.update_batches_applied += 1
