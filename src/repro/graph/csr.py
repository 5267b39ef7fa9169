"""CSR construction and utilities.

Seastar expects graphs in CSR format (paper §V-B): the forward pass walks
*in*-neighbors via the reverse CSR, the backward pass walks *out*-neighbors
via the direct CSR, and both orientations must share edge labels so an edge
property is the same array slot in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.device import current_device
from repro.graph.sorting import node_ids_for

__all__ = ["BuiltSnapshot", "CSR", "build_csr", "csr_from_edges", "edge_density", "index_dtype"]

_INT32_MAX = np.iinfo(np.int32).max


def index_dtype(num_nodes: int, num_edges: int) -> np.dtype:
    """The one index width of a snapshot's structural arrays.

    int32 (the width Seastar's CUDA kernels walk) when both the vertex and
    the edge count fit below ``2**31 - 1``, else int64.  Every CSR builder
    and every degree array takes its width from here, so no build converts
    between widths.
    """
    if num_nodes < _INT32_MAX and num_edges < _INT32_MAX:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


@dataclass
class CSR:
    """One CSR orientation of a snapshot.

    Every array is at the snapshot's index width, :func:`index_dtype`.

    Attributes
    ----------
    row_offset:
        ``(N+1,)`` — neighbor-list boundaries.
    col_indices:
        ``(E,)`` — neighbor vertex ids.
    eids:
        ``(E,)`` — shared edge labels (same label in both orientations);
        ``None`` when every label is its own position, as in the out-CSR of
        a DTDG build (relabelling ranks the sorted keys).  Like
        ``node_ids``, an identity is no array.
    node_ids:
        ``(N,)`` — vertices in descending-degree processing order (paper
        Figure 3) when the graph asks for it; ``None`` for identity order,
        the default.
    """

    row_offset: np.ndarray
    col_indices: np.ndarray
    eids: np.ndarray | None
    node_ids: np.ndarray | None
    num_nodes: int = field(default=0)

    def __post_init__(self) -> None:
        if self.num_nodes == 0:
            self.num_nodes = len(self.row_offset) - 1

    @property
    def num_edges(self) -> int:
        """Edge count of this orientation."""
        return len(self.col_indices)

    def degrees(self) -> np.ndarray:
        """Per-row neighbor counts."""
        return np.diff(self.row_offset)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of vertex ``v``."""
        return self.col_indices[self.row_offset[v] : self.row_offset[v + 1]]

    def edge_ids(self, v: int) -> np.ndarray:
        """Shared edge labels of vertex ``v``'s list."""
        lo, hi = self.row_offset[v], self.row_offset[v + 1]
        return np.arange(lo, hi) if self.eids is None else self.eids[lo:hi]

    def nbytes(self) -> int:
        """Total bytes of the (two to four) arrays."""
        optional = sum(a.nbytes for a in (self.eids, self.node_ids) if a is not None)
        return int(self.row_offset.nbytes + self.col_indices.nbytes + optional)

    def validate(self) -> None:
        """Assert structural well-formedness (offsets, bounds, labels, node_ids)."""
        assert self.row_offset[0] == 0
        assert self.row_offset[-1] == self.num_edges
        assert np.all(np.diff(self.row_offset) >= 0)
        if self.num_edges:
            assert self.col_indices.min() >= 0
            assert self.col_indices.max() < self.num_nodes
        if self.eids is not None:
            assert sorted(self.eids.tolist()) == list(range(self.num_edges))
        if self.node_ids is not None:
            assert sorted(self.node_ids.tolist()) == list(range(self.num_nodes))


@dataclass
class BuiltSnapshot:
    """One built snapshot: both CSR orientations and both degree arrays.

    Every graph hands the executor one of these per position
    (:meth:`~repro.graph.base.STGraphBase.snapshot`).  Instances are never
    mutated after construction, so every context made from one shares its
    arrays.
    """

    fwd: CSR
    bwd: CSR
    in_deg: np.ndarray
    out_deg: np.ndarray

    def nbytes(self) -> int:
        """Total bytes of the two CSRs and the two degree arrays."""
        return self.fwd.nbytes() + self.bwd.nbytes() + self.in_deg.nbytes + self.out_deg.nbytes


def build_csr(
    row: np.ndarray,
    col: np.ndarray,
    eids: np.ndarray,
    num_nodes: int,
    sort_by_degree: bool = False,
    track_tag: str = "csr",
) -> CSR:
    """Build a CSR keyed on ``row`` (vectorized, device-tracked).

    ``eids`` travel with their edges so both orientations built from the same
    labelled edge list stay consistent.
    """
    alloc = current_device().alloc
    idx = index_dtype(num_nodes, len(row))
    col = np.asarray(col, dtype=idx)
    eids = np.asarray(eids, dtype=idx)
    order = np.argsort(row, kind="stable")
    counts = np.bincount(row, minlength=num_nodes).astype(idx)
    row_offset = alloc.zeros(num_nodes + 1, dtype=idx, tag=f"{track_tag}.row_offset")
    np.cumsum(counts, out=row_offset[1:])
    col_sorted = alloc.adopt(col[order], tag=f"{track_tag}.col_indices")
    eid_sorted = alloc.adopt(eids[order], tag=f"{track_tag}.eids")
    node_ids = node_ids_for(counts, sort_by_degree)
    if node_ids is not None:
        alloc.adopt(node_ids, tag=f"{track_tag}.node_ids")
    return CSR(row_offset, col_sorted, eid_sorted, node_ids, num_nodes)


def csr_from_edges(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    sort_by_degree: bool = False,
) -> tuple[CSR, CSR]:
    """Build the (backward, forward) CSR pair with shared edge labels.

    Edges are labelled canonically: label = rank of ``(src, dst)`` in
    lexicographic order.  The *backward* CSR is keyed on ``src``
    (out-neighbors), the *forward* CSR on ``dst`` (in-neighbors / reverse
    CSR); both carry the same labels so kernels address edge data
    identically in either pass.
    """
    from repro.graph.labels import canonical_edge_labels

    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    eids = canonical_edge_labels(src, dst, num_nodes)
    bwd = build_csr(src, dst, eids, num_nodes, sort_by_degree, track_tag="csr.bwd")
    fwd = build_csr(dst, src, eids, num_nodes, sort_by_degree, track_tag="csr.fwd")
    return bwd, fwd


def edge_density(num_nodes: int, num_edges: int) -> float:
    """Directed edge density E / (N * (N - 1)); the paper uses this to
    explain which datasets benefit most from vertex-centric aggregation."""
    if num_nodes <= 1:
        return 0.0
    return num_edges / (num_nodes * (num_nodes - 1))
