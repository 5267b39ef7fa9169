"""Algorithm 2 and the one snapshot build of the DTDG-backed graphs.

* :class:`UpdateCursor` — the mutable core of a GPMA-backed temporal graph:
  one PMA positioned at one timestamp, with Algorithm 2's update-batch
  replay and its two restore points (the DTDG base graph, kept from
  construction, and the state slot ``cache_state`` fills at a sequence
  boundary).  It holds storage, not identity: what content a timestamp
  has is :meth:`DTDG.version_of <repro.graph.dtdg.DTDG.version_of>`.
* :func:`build_snapshot_arrays` — the pure relabel + Algorithm 3 function:
  sorted edge keys in, immutable :class:`BuiltSnapshot` out, no shared
  state touched, O(E + N).  Every DTDG-backed graph builds through it
  (:class:`~repro.graph.base.DTDGGraph`: GPMA and serving per call, Naive
  once per timestamp up front); only ``StaticGraph`` keeps
  :func:`~repro.graph.csr.csr_from_edges`, whose loaders' edges are not
  key-sorted.  The paper's gapped input shape over raw PMA
  storage is a test oracle only (``tests/_snapshot_reference.py``).

Graphs keep no build: a graph's ``snapshot()`` calls the build and hands
the result to the executor, whose ``snapshot_key() -> GraphContext`` LRU is
the one store of built snapshots (docs/EXECUTOR.md).
:class:`~repro.graph.csr.BuiltSnapshot` lives beside ``CSR`` and is
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import BuiltSnapshot, CSR, index_dtype
from repro.graph.dtdg import DTDG
from repro.graph.labels import decode_edges, encode_edges
from repro.graph.sorting import node_ids_for
from repro.pma import PackedMemoryArray

__all__ = ["BuiltSnapshot", "UpdateCursor", "build_snapshot_arrays"]


@dataclass
class _CursorState:
    """A saved PMA state (Algorithm 2's graph cache) and its timestamp."""

    time: int
    pma: tuple[np.ndarray, np.ndarray]  # PackedMemoryArray.save_state()


# ---------------------------------------------------------------------------
# Pure snapshot materialization (relabel + Algorithm 3)
# ---------------------------------------------------------------------------
def build_snapshot_arrays(
    keys: np.ndarray, num_nodes: int, sort_by_degree: bool, alloc, tag: str = "gpma"
) -> BuiltSnapshot:
    """Relabel + Algorithm 3 over one snapshot's sorted unique edge keys →
    an immutable :class:`BuiltSnapshot`.

    The sorted keys are the out-CSR; the in-CSR is its stable counting-sort
    transpose.  The keys come from a PMA compaction
    (:meth:`~repro.pma.PackedMemoryArray.export_items`, the training walk)
    or from :meth:`DTDG.snapshot_keys <repro.graph.dtdg.DTDG.snapshot_keys>`
    (serving and ``NaiveGraph``'s pre-build).  Pure: ``keys`` is read, the
    only side effect is byte accounting on ``alloc``, under the caller's
    ``tag`` prefix (``gpma.*`` for the graphs that build on demand).  The
    out-CSR's labels are its positions, so its ``eids`` is ``None``: an
    identity is no array (the ``node_ids=None`` rule).
    """
    from repro.graph.reverse import reverse_gpma_vectorized

    src, dst = decode_edges(keys, num_nodes)
    num_edges = len(keys)
    idx = index_dtype(num_nodes, num_edges)

    out_deg = np.bincount(src, minlength=num_nodes).astype(idx)
    in_deg = np.bincount(dst, minlength=num_nodes).astype(idx)

    # Backward (out-)CSR falls straight out of the sorted keys.
    bwd_row = alloc.zeros(num_nodes + 1, dtype=idx, tag=f"{tag}.bwd.row")
    np.cumsum(out_deg, out=bwd_row[1:])
    bwd_col = alloc.adopt(dst.astype(idx), tag=f"{tag}.bwd.col")
    bwd_ids, fwd_ids = node_ids_for(out_deg, sort_by_degree), node_ids_for(in_deg, sort_by_degree)
    if sort_by_degree:  # identity order keeps no array
        alloc.adopt(bwd_ids, tag=f"{tag}.bwd.ids")
        alloc.adopt(fwd_ids, tag=f"{tag}.fwd.ids")
    # Relabelling (Algorithm 2 line 8) makes a label the edge's rank among
    # the sorted keys, which is its out-CSR position: an identity, so the
    # out-CSR stores no label array (``eids=None``).
    bwd = CSR(bwd_row, bwd_col, None, bwd_ids)

    # Forward (reverse) CSR: Algorithm 3's counting sort over that compact
    # out-CSR, already at the index width.  The positions ride along (a
    # transient array, not kept) and become the in-CSR's labels.
    f_row, f_col, f_eid = reverse_gpma_vectorized(bwd_row, bwd_col, np.arange(num_edges, dtype=idx), num_nodes)
    fwd = CSR(
        alloc.adopt(f_row, tag=f"{tag}.fwd.row"),
        alloc.adopt(f_col, tag=f"{tag}.fwd.col"),
        alloc.adopt(f_eid, tag=f"{tag}.fwd.eid"),
        fwd_ids,
    )
    return BuiltSnapshot(fwd, bwd, alloc.adopt(in_deg, tag=f"{tag}.in_deg"), alloc.adopt(out_deg, tag=f"{tag}.out_deg"))


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
        keys = dtdg.snapshot_keys(0)
        self.pma = PackedMemoryArray(capacity=max(64, 2 * len(keys)))
        self.pma.insert_batch(keys)
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
        return _CursorState(self.time, self.pma.save_state())

    def cache_state(self) -> None:
        """Save the current PMA state (Algorithm 2 line 10)."""
        if self.enable_cache:
            self._cache = self._saved_state()

    def drop_cache(self) -> None:
        """Invalidate the saved PMA state (corruption fault)."""
        self._cache = None

    def _restore(self, saved: _CursorState) -> None:
        self.pma.restore_state(saved.pma)
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
            self.pma.insert_batch(encode_edges(upd.add_src, upd.add_dst, self.num_nodes))
        self.update_batches_applied += 1
