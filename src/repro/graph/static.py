"""Static-temporal graph: fixed structure, time-varying features.

Structure never changes (Definition II.1), so both CSR orientations, degree
arrays, and (when asked for) the degree-sorted ``node_ids`` are built once
ahead of training, all at one index width (:func:`~repro.graph.csr.index_dtype`)
— the pre-processing Seastar relies on for its performance.
``get_graph``/``get_backward_graph`` are identity operations and the Graph
Stack is never used for this type (Algorithm 1, line 3 comment).
"""

from __future__ import annotations

import numpy as np

from repro.device import current_device
from repro.graph.base import STGraphBase
from repro.graph.csr import BuiltSnapshot, csr_from_edges

__all__ = ["StaticGraph"]


class StaticGraph(STGraphBase):
    """Fixed-structure graph: both CSRs prebuilt, identity temporal ops."""
    graph_type = "static"

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: int,
        sort_by_degree: bool = False,
    ) -> None:
        super().__init__(num_nodes, sort_by_degree)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if len(src) != len(dst):
            raise ValueError("src/dst length mismatch")
        bwd, fwd = csr_from_edges(src, dst, num_nodes, sort_by_degree)
        # Degrees are the CSRs' row lengths, so they share the index width.
        alloc = current_device().alloc
        in_deg = alloc.adopt(np.diff(fwd.row_offset), tag="graph.in_deg")
        out_deg = alloc.adopt(np.diff(bwd.row_offset), tag="graph.out_deg")
        self._snapshot = BuiltSnapshot(fwd, bwd, in_deg, out_deg)

    @classmethod
    def from_networkx(cls, graph, sort_by_degree: bool = False) -> "StaticGraph":
        """Build from a ``networkx`` directed graph with integer node ids."""
        edges = np.asarray(list(graph.edges()), dtype=np.int64)
        if len(edges) == 0:
            edges = np.empty((0, 2), dtype=np.int64)
        return cls(edges[:, 0], edges[:, 1], graph.number_of_nodes(), sort_by_degree)

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` (edge attr ``label`` = edge id)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_nodes))
        bwd = self._snapshot.bwd
        for u in range(self.num_nodes):
            for v, l in zip(bwd.neighbors(u), bwd.edge_ids(u)):
                g.add_edge(int(u), int(v), label=int(l))
        return g

    def get_graph(self, timestamp: int) -> "StaticGraph":
        """Identity: structure never changes."""
        return self

    def get_backward_graph(self, timestamp: int) -> "StaticGraph":
        """Identity: structure never changes."""
        return self

    def snapshot(self) -> BuiltSnapshot:
        """Both CSRs and both degree arrays, built at construction."""
        return self._snapshot

    @property
    def num_edges(self) -> int:
        """Edge count (constant over time)."""
        return self._snapshot.bwd.num_edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticGraph(N={self.num_nodes}, E={self.num_edges})"
