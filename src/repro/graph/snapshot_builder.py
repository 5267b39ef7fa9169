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
* :func:`patch_snapshot` — Algorithm 2's idea applied to the built arrays:
  one exact-set-difference update batch spliced into a
  :class:`BuiltSnapshot`, O(E + N) with no sort and no transpose, bitwise
  what :func:`build_snapshot_arrays` makes of the new keys.  Serving's live
  graph moves its one build forward with it; training builds afresh.

Graphs keep no build, except serving's live graph, which keeps the one
build it last made (the arrays its one-entry context store holds): a
graph's ``snapshot()`` makes the build and hands it to the executor, whose
``snapshot_key() -> GraphContext`` LRU is the one store of built snapshots
(docs/EXECUTOR.md).
:class:`~repro.graph.csr.BuiltSnapshot` lives beside ``CSR`` and is
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.allocator import DeviceAllocator
from repro.graph.csr import BuiltSnapshot, CSR, index_dtype
from repro.graph.dtdg import DTDG, EdgeUpdate
from repro.graph.labels import decode_edges, encode_edges
from repro.graph.sorting import node_ids_for
from repro.pma import PackedMemoryArray

__all__ = ["BuiltSnapshot", "UpdateCursor", "build_snapshot_arrays", "patch_snapshot"]


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


def _row_lower_bound(row: np.ndarray, col: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For each ``(rows[i], values[i])``, the first position of row
    ``rows[i]``'s ascending neighbour list ``col[row[r]:row[r + 1]]`` whose
    neighbour is not below ``values[i]``: one binary search per row, all
    rows in lock step."""
    lo = row[rows].astype(np.int64)
    hi = row[rows + 1].astype(np.int64)
    while True:
        searching = lo < hi
        if not searching.any():
            return lo
        mid = (lo + hi) >> 1
        below = searching & (col[np.where(searching, mid, 0)] < values)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(searching & ~below, mid, hi)


def _changes(csr: CSR, rows: np.ndarray, cols: np.ndarray, num_deletes: int) -> tuple[np.ndarray, np.ndarray]:
    """Where one orientation changes: the sorted positions of the deleted
    edges ``rows[:num_deletes] -> cols[:num_deletes]`` and the insertion
    points of the added ones after them, one binary search per edge.
    ``ValueError`` unless every deleted edge is there and no added one is,
    so a batch that is no exact set difference never patches a build."""
    at = _row_lower_bound(csr.row_offset, csr.col_indices, rows, cols)
    found = at < csr.row_offset[rows + 1]
    found[found] = csr.col_indices[at[found]] == cols[found]
    if not (found[:num_deletes].all() and not found[num_deletes:].any()):
        raise ValueError("the update batch is not an exact set difference against the snapshot")
    return np.sort(at[:num_deletes]), at[num_deletes:]


def _steps(up: np.ndarray, down: np.ndarray, length: int, dtype: np.dtype) -> np.ndarray:
    """``f(i) = #(up <= i) - #(down <= i)`` for ``i`` in ``[0, length)``, at
    ``dtype``: a step function with one step per entry, made by one repeat."""
    breaks = np.concatenate([up, down])
    order = np.argsort(breaks, kind="stable")
    values = np.zeros(len(breaks) + 1, dtype=dtype)
    np.cumsum(np.where(order < len(up), 1, -1), out=values[1:])
    bounds = np.zeros(len(breaks) + 2, dtype=np.int64)
    bounds[1:-1], bounds[-1] = breaks[order], length
    return np.repeat(values, np.diff(bounds))


def _splice(values: np.ndarray, drop: np.ndarray, at: np.ndarray, new: np.ndarray, idx: np.dtype) -> np.ndarray:
    """``values`` without the sorted positions ``drop`` and with ``new``
    inserted before the old positions ``at`` (nondecreasing; ties keep
    their order), at width ``idx``: the runs between change points are
    copied whole."""
    out = np.empty(len(values) - len(drop) + len(new), dtype=idx)
    # Change points in old-position order, each insert ahead of a delete at
    # its position (the insert goes before the old entry the delete skips).
    points = np.concatenate([at, drop])
    order = np.lexsort((np.arange(len(points)) >= len(at), points)).tolist()
    src = dst = 0
    for pos, i in zip(points[order].tolist(), order):
        run = pos - src
        out[dst : dst + run] = values[src:pos]
        dst, src = dst + run, pos
        if i < len(at):
            out[dst] = new[i]
            dst += 1
        else:
            src += 1
    out[dst:] = values[src:]
    return out


def patch_snapshot(
    prev: BuiltSnapshot,
    update: EdgeUpdate,
    num_nodes: int,
    sort_by_degree: bool,
    alloc: DeviceAllocator,
    tag: str = "gpma",
) -> BuiltSnapshot:
    """Apply one update batch to a build: the :class:`BuiltSnapshot` that
    :func:`build_snapshot_arrays` makes of the new snapshot's keys, bitwise
    and dtype for dtype, without decoding, counting or transposing them.

    ``update`` must be an exact set difference against ``prev`` (every
    deleted edge present, every added one absent: a stored
    :attr:`DTDG.updates <repro.graph.dtdg.DTDG.updates>` entry), else
    ``ValueError``.  Per-row binary searches find each changed edge's
    position in both orientations and each edge array is one splice.  The
    degrees take the batch's deltas, and the row offsets and the in-CSR
    labels move by step functions with one step per changed edge: a row
    offset by the adds less the deletes in the rows before it, a label (an
    out-CSR position) by the adds at or before it less the deletes before it.

    ``prev`` is consumed: pass the only reference to it.  Its arrays are
    released before the patched ones are adopted on ``alloc`` (under
    ``tag``, the build's tags), so the ledger never counts both builds.
    """
    n = num_nodes
    add_src, add_dst, del_src, del_dst = (
        np.asarray(a, dtype=np.int64) for a in (update.add_src, update.add_dst, update.del_src, update.del_dst)
    )
    num_deletes = len(del_src)
    num_edges = prev.bwd.num_edges + len(add_src) - num_deletes
    idx = index_dtype(n, num_edges)

    # Out-CSR: rows are sources, positions are key order (and labels).
    out_add = np.argsort(add_src * n + add_dst, kind="stable")
    out_del, out_at = _changes(
        prev.bwd, np.concatenate([del_src, add_src[out_add]]), np.concatenate([del_dst, add_dst[out_add]]), num_deletes
    )
    bwd_col = _splice(prev.bwd.col_indices, out_del, out_at, add_dst[out_add], idx)
    # Each add's label is its new out-CSR position.
    add_label = np.empty(len(out_add), dtype=idx)
    add_label[out_add] = out_at - np.searchsorted(out_del, out_at) + np.arange(len(out_at))

    # In-CSR: rows are destinations, each list ascending by source, so adds
    # that share an insertion point across adjacent rows go in (dst, src)
    # order.  Every kept label shifts; the deleted entries go with the splice.
    in_add = np.argsort(add_dst * n + add_src, kind="stable")
    in_del, in_at = _changes(
        prev.fwd, np.concatenate([del_dst, add_dst[in_add]]), np.concatenate([del_src, add_src[in_add]]), num_deletes
    )
    assert prev.fwd.eids is not None  # a DTDG build's in-CSR labels are an array
    labels = np.take(_steps(out_at, out_del + 1, prev.bwd.num_edges, idx), prev.fwd.eids)
    labels += prev.fwd.eids
    fwd_col = _splice(prev.fwd.col_indices, in_del, in_at, add_src[in_add], idx)
    fwd_eid = _splice(labels, in_del, in_at, add_label[in_add], idx)

    bwd_row = np.add(prev.bwd.row_offset, _steps(add_src + 1, del_src + 1, n + 1, idx), dtype=idx)
    fwd_row = np.add(prev.fwd.row_offset, _steps(add_dst + 1, del_dst + 1, n + 1, idx), dtype=idx)
    out_deg = prev.out_deg.astype(idx)
    np.add.at(out_deg, add_src, 1)
    np.subtract.at(out_deg, del_src, 1)
    in_deg = prev.in_deg.astype(idx)
    np.add.at(in_deg, add_dst, 1)
    np.subtract.at(in_deg, del_dst, 1)
    del prev, labels  # the last references: the superseded build leaves the ledger here

    bwd_ids, fwd_ids = node_ids_for(out_deg, sort_by_degree), node_ids_for(in_deg, sort_by_degree)
    if sort_by_degree:
        alloc.adopt(bwd_ids, tag=f"{tag}.bwd.ids")
        alloc.adopt(fwd_ids, tag=f"{tag}.fwd.ids")
    bwd = CSR(alloc.adopt(bwd_row, tag=f"{tag}.bwd.row"), alloc.adopt(bwd_col, tag=f"{tag}.bwd.col"), None, bwd_ids)
    fwd = CSR(
        alloc.adopt(fwd_row, tag=f"{tag}.fwd.row"),
        alloc.adopt(fwd_col, tag=f"{tag}.fwd.col"),
        alloc.adopt(fwd_eid, tag=f"{tag}.fwd.eid"),
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
