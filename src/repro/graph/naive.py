"""NaiveGraph: every DTDG snapshot pre-materialized (paper §V-C).

Each snapshot's forward CSR, backward CSR, shared edge labels, degree
arrays, and degree-sorted node ids are built and "moved to the GPU" (tracked
by the device allocator) during preprocessing.  Accessing a snapshot is then
just array indexing — the fastest option — but "storing each graph snapshot
on the GPU along with additional data such as edge IDs, node IDs, in-degrees
array, and out-degrees array creates a significant memory overhead", which
is exactly what Figure 8 measures.

A snapshot's identity is the DTDG's content version, the same rule as
GPMAGraph's: across a no-op boundary the executor reuses one context.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device import current_device
from repro.graph.base import STGraphBase
from repro.graph.csr import CSR, csr_from_edges
from repro.graph.dtdg import DTDG
from repro.obs.spine import span

__all__ = ["NaiveGraph"]


@dataclass
class _Snapshot:
    fwd: CSR
    bwd: CSR
    in_deg: np.ndarray
    out_deg: np.ndarray

    def nbytes(self) -> int:
        return self.fwd.nbytes() + self.bwd.nbytes() + self.in_deg.nbytes + self.out_deg.nbytes


class NaiveGraph(STGraphBase):
    """DTDG with every snapshot pre-materialized (fast access, heavy memory)."""
    graph_type = "naive"

    def __init__(self, dtdg: DTDG, sort_by_degree: bool = True) -> None:
        super().__init__(dtdg.num_nodes, sort_by_degree)
        self.dtdg = dtdg
        alloc = current_device().alloc
        self._snapshots: list[_Snapshot] = []
        with span("graph.preprocess", kind="naive"):
            for t in range(dtdg.num_timestamps):
                src, dst = dtdg.snapshot_edges(t)
                bwd, fwd = csr_from_edges(src, dst, dtdg.num_nodes, sort_by_degree)
                in_deg = alloc.adopt(
                    np.bincount(dst, minlength=dtdg.num_nodes).astype(np.int64),
                    tag="naive.in_deg",
                )
                out_deg = alloc.adopt(
                    np.bincount(src, minlength=dtdg.num_nodes).astype(np.int64),
                    tag="naive.out_deg",
                )
                self._snapshots.append(_Snapshot(fwd, bwd, in_deg, out_deg))
                # Every snapshot's CSRs are built exactly once, up front:
                # each build is one miss of the reuse cache.
                self._count("csr_cache_misses")
        self._current = 0

    @property
    def num_timestamps(self) -> int:
        """Number of pre-built snapshots."""
        return len(self._snapshots)

    def get_graph(self, timestamp: int) -> "NaiveGraph":
        """Point at the pre-built snapshot for ``timestamp``."""
        # "Accessing these snapshots is immediate since it only involves
        # array indexing": Figure 9's ~0 update share for the Naive variant
        # is the executor's begin_timestamp interval around this call.
        self._current = int(timestamp)
        return self

    def get_backward_graph(self, timestamp: int) -> "NaiveGraph":
        """Point at the pre-built snapshot for the backward step."""
        self._current = int(timestamp)
        # The backward walk reuses the forward build: structurally free
        # here, but counted so all dynamic graphs report the same reuse
        # statistics.
        self._count("csr_cache_hits")
        return self

    @property
    def snapshot_version(self) -> int:
        """Content version of the snapshot currently pointed at."""
        return self.dtdg.version_of(self._current)

    def forward_csr(self) -> CSR:
        """Current snapshot's reverse CSR."""
        return self._snapshots[self._current].fwd

    def backward_csr(self) -> CSR:
        """Current snapshot's direct CSR."""
        return self._snapshots[self._current].bwd

    def in_degrees(self) -> np.ndarray:
        """Current snapshot's in-degrees."""
        return self._snapshots[self._current].in_deg

    def out_degrees(self) -> np.ndarray:
        """Current snapshot's out-degrees."""
        return self._snapshots[self._current].out_deg

    @property
    def num_edges(self) -> int:
        """Current snapshot's edge count."""
        return self._snapshots[self._current].bwd.num_edges

    def storage_bytes(self) -> int:
        """Total bytes of all pre-materialized snapshots (both CSR copies)."""
        return sum(s.nbytes() for s in self._snapshots)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NaiveGraph(N={self.num_nodes}, T={self.num_timestamps}, "
            f"current={self._current}, E={self.num_edges})"
        )
