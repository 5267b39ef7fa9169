"""Frozen snapshot-build oracle (test-only).

``build_snapshot_arrays``, ``gapped_csr_arrays`` and
``reverse_gpma_vectorized`` exactly as they stood before the build became one
compaction plus a counting-sort transpose (``src/repro/graph/snapshot_builder.py``
and ``src/repro/graph/reverse.py`` at commit 98f014a), functions renamed and
nothing else changed: the out-CSR from the sorted keys, the in-CSR from a
second, gapped view of the same storage through a stable ``argsort``.  It is
**not a code path**: nothing under ``src/`` may import it, and it must not be
edited to follow the modules it was copied from.
``tests/test_graph_snapshot_build.py`` and the
``benchmarks/test_micro_reverse_csr.py`` speed gate run both builds over the
same PMA and require all ten arrays to be equal, dtypes included.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSR
from repro.graph.labels import decode_edges
from repro.graph.snapshot_builder import BuiltSnapshot
from repro.pma import PackedMemoryArray, SPACE_KEY

__all__ = ["reference_build_snapshot_arrays", "reference_gapped_csr_arrays", "reference_reverse_argsort"]

_INT64_MAX = np.iinfo(np.int64).max


def reference_gapped_csr_arrays(pma: PackedMemoryArray, num_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def reference_reverse_argsort(
    row_offset: np.ndarray,
    col_indices: np.ndarray,
    eids: np.ndarray,
    num_nodes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    row_offset = np.asarray(row_offset, dtype=np.int64)
    col_indices = np.asarray(col_indices, dtype=np.int64)
    eids = np.asarray(eids, dtype=np.int64)
    # row_offset windows cover the first row_offset[-1] slots of the gapped
    # storage; anything past that is unowned slack.
    covered = int(row_offset[-1])
    lengths = np.diff(row_offset)
    rows = np.repeat(np.arange(num_nodes, dtype=np.int64), lengths)
    valid = col_indices[:covered] != SPACE_KEY
    src = rows[valid]
    dst = col_indices[:covered][valid]
    eid = eids[:covered][valid]

    order = np.argsort(dst, kind="stable")
    r_col = src[order]
    r_eid = eid[order]
    counts = np.bincount(dst, minlength=num_nodes)
    r_row_offset = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=r_row_offset[1:])
    return r_row_offset, r_col, r_eid


def reference_build_snapshot_arrays(
    pma: PackedMemoryArray, num_nodes: int, sort_by_degree: bool, alloc
) -> BuiltSnapshot:
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
    bwd_eid = alloc.adopt(labels.copy(), tag="gpma.bwd.eid")
    bwd_ids = (
        np.argsort(-out_deg, kind="stable").astype(np.int64)
        if sort_by_degree
        else np.arange(num_nodes, dtype=np.int64)
    )
    bwd = CSR(bwd_row, bwd_col, bwd_eid, alloc.adopt(bwd_ids, tag="gpma.bwd.ids"))

    # Forward (reverse) CSR via Algorithm 3 over the gapped storage.
    g_row, g_col, g_eid = reference_gapped_csr_arrays(pma, num_nodes)
    f_row, f_col, f_eid = reference_reverse_argsort(g_row, g_col, g_eid, num_nodes)
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
