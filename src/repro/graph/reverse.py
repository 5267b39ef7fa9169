"""Algorithm 3: reverse-CSR construction from a gapped (GPMA) CSR.

Two implementations are provided:

* :func:`reverse_gpma_literal` — a line-for-line transcription of the
  paper's Algorithm 3, including the ``dst != SPACE`` check and the atomic
  subtract on the shifted prefix-sum array.  The "parallel for" over nodes is
  executed sequentially; since every write location is claimed by an atomic
  decrement the result is order-independent, which the tests verify against
  the vectorized version under shuffled execution order.
* :func:`reverse_gpma_vectorized` — the production path: identical output
  from the same prefix-sum-and-place loop run sequentially, so it is a stable
  counting sort, O(E + N) (SciPy's CSR -> CSC conversion; this plays the role
  of the tuned CUDA kernel on real hardware).

Both return ``(r_row_offset, r_col_indices, r_eids)`` where the row offsets
are the standard exclusive prefix-sum form.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from repro.pma.pma import SPACE_KEY

__all__ = ["reverse_gpma_literal", "reverse_gpma_vectorized", "reverse_csr_arrays"]


def reverse_gpma_literal(
    row_offset: np.ndarray,
    col_indices: np.ndarray,
    eids: np.ndarray,
    in_degrees: np.ndarray,
    node_order: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 3 as written.

    Parameters mirror the paper: ``row_offset`` indexes into the *gapped*
    ``col_indices``/``eids`` arrays (entries equal to ``SPACE`` are skipped),
    ``in_degrees`` drives the inclusive prefix sum.  ``node_order`` lets the
    tests emulate arbitrary thread scheduling of the parallel outer loop.
    """
    num_nodes = len(in_degrees)
    edge_count = int(in_degrees.sum())

    # Line 1: r_row_offset = inclusive_prefix_sum(G.in_degrees)
    r_row_offset = np.cumsum(in_degrees).astype(np.int64)
    # Lines 2-3: allocate output arrays
    r_col_indices = np.full(edge_count, -1, dtype=np.int64)
    r_eids = np.full(edge_count, -1, dtype=np.int64)

    order = np.arange(num_nodes) if node_order is None else node_order
    # Lines 4-16: for each node i "in parallel"
    for i in order:
        start = int(row_offset[i])
        end = int(row_offset[i + 1])
        for j in range(start, end):
            dst = int(col_indices[j])
            eid = int(eids[j])
            if dst != SPACE_KEY:  # line 10
                # Line 11: loc = atomic_sub(r_row_offset[dst], 1)
                r_row_offset[dst] -= 1
                loc = int(r_row_offset[dst])
                r_col_indices[loc] = i  # line 12
                r_eids[loc] = eid  # line 13

    # After all decrements, r_row_offset[v] is the start of v's neighbor
    # list — the exclusive prefix sum.  Append the total for the N+1 form.
    r_row_offset_full = np.concatenate([r_row_offset, [edge_count]]).astype(np.int64)
    return r_row_offset_full, r_col_indices, r_eids


def reverse_gpma_vectorized(
    row_offset: np.ndarray,
    col_indices: np.ndarray,
    eids: np.ndarray,
    num_nodes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Algorithm 3 over a gapped (or compact) CSR.

    Drops ``SPACE`` slots, then transposes with a stable counting sort, so
    within each reverse neighbor list sources appear in ascending order (the
    literal version's output is validated against this after per-list
    sorting).  Compact input, which is what a snapshot build passes, skips
    the compaction copies.
    """
    row_offset = np.asarray(row_offset, dtype=np.int64)
    # row_offset windows cover the first row_offset[-1] slots of the gapped
    # storage; anything past that is unowned slack.
    covered = int(row_offset[-1])
    col = np.asarray(col_indices, dtype=np.int64)[:covered]
    eid = np.asarray(eids, dtype=np.int64)[:covered]
    valid = col != SPACE_KEY
    if not valid.all():
        kept = np.zeros(covered + 1, dtype=np.int64)
        np.cumsum(valid, out=kept[1:])
        row_offset, col, eid = kept[row_offset], col[valid], eid[valid]
    # Labels ride along as the matrix data; tocsc() neither sorts nor merges.
    rev = csr_matrix((eid, col, row_offset), shape=(num_nodes, num_nodes)).tocsc()
    # SciPy narrows the index arrays to int32 where they fit; the CSR is int64.
    return tuple(a.astype(np.int64, copy=False) for a in (rev.indptr, rev.indices, rev.data))


def reverse_csr_arrays(
    row_offset: np.ndarray,
    col_indices: np.ndarray,
    eids: np.ndarray,
    num_nodes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reverse a *compact* (gap-free) CSR; used by the static path."""
    return reverse_gpma_vectorized(row_offset, col_indices, eids, num_nodes)
