"""NaiveGraph: every DTDG snapshot pre-materialized (paper §V-C).

Each snapshot's forward CSR, backward CSR, shared edge labels, degree
arrays, and (when degree-ordered) node ids are built at the snapshot's
index width and "moved to the GPU" (tracked by the device allocator) during
preprocessing.  Accessing a snapshot is then just array indexing — the
fastest option — but "storing each graph snapshot on the GPU along with
additional data such as edge IDs, node IDs, in-degrees array, and
out-degrees array creates a significant memory overhead", which is exactly
what Figure 8 measures.

A snapshot's identity is the DTDG's content version, the same rule as
GPMAGraph's: across a no-op boundary the executor reuses one context.
"""

from __future__ import annotations

import numpy as np

from repro.device import current_device
from repro.graph.base import STGraphBase
from repro.graph.csr import BuiltSnapshot, csr_from_edges
from repro.graph.dtdg import DTDG
from repro.obs.spine import span

__all__ = ["NaiveGraph"]


class NaiveGraph(STGraphBase):
    """DTDG with every snapshot pre-materialized (fast access, heavy memory)."""
    graph_type = "naive"

    def __init__(self, dtdg: DTDG, sort_by_degree: bool = False) -> None:
        super().__init__(dtdg.num_nodes, sort_by_degree)
        self.dtdg = dtdg
        alloc = current_device().alloc
        self._snapshots: list[BuiltSnapshot] = []
        with span("graph.preprocess", kind="naive"):
            for t in range(dtdg.num_timestamps):
                src, dst = dtdg.snapshot_edges(t)
                bwd, fwd = csr_from_edges(src, dst, dtdg.num_nodes, sort_by_degree)
                # Degrees are the CSRs' row lengths, at the same index width.
                in_deg = alloc.adopt(np.diff(fwd.row_offset), tag="naive.in_deg")
                out_deg = alloc.adopt(np.diff(bwd.row_offset), tag="naive.out_deg")
                self._snapshots.append(BuiltSnapshot(fwd, bwd, in_deg, out_deg))
                # Every snapshot is built exactly once, up front: one
                # csr_cache_misses each.
                self._count("csr_cache_misses")
        self._current = 0

    @property
    def num_timestamps(self) -> int:
        """Number of pre-built snapshots."""
        return len(self._snapshots)

    def _check_prebuilt(self, timestamp: int) -> int:
        """``timestamp`` as an int, or an ``IndexError`` before anything moves
        when no snapshot was pre-built for it (outside the DTDG's range, or
        appended with ``dtdg.append_update`` after construction)."""
        t = int(timestamp)
        if not 0 <= t < len(self._snapshots):
            raise IndexError(
                f"timestamp {t} has no pre-built snapshot: NaiveGraph built "
                f"[0, {len(self._snapshots)}) at construction"
            )
        return t

    def get_graph(self, timestamp: int) -> "NaiveGraph":
        """Point at the pre-built snapshot for ``timestamp``."""
        # "Accessing these snapshots is immediate since it only involves
        # array indexing": Figure 9's ~0 update share for the Naive variant
        # is the executor's begin_timestamp interval around this call.
        self._current = self._check_prebuilt(timestamp)
        return self

    def get_backward_graph(self, timestamp: int) -> "NaiveGraph":
        """Point at the pre-built snapshot for the backward step."""
        self._current = self._check_prebuilt(timestamp)
        # The backward walk reuses the forward build: structurally free
        # here, and the one event ``csr_cache_hits`` counts.
        self._count("csr_cache_hits")
        return self

    @property
    def snapshot_version(self) -> int:
        """Content version of the snapshot currently pointed at."""
        return self.dtdg.version_of(self._current)

    def snapshot(self) -> BuiltSnapshot:
        """The pre-built snapshot currently pointed at."""
        return self._snapshots[self._current]

    @property
    def num_edges(self) -> int:
        """Current snapshot's edge count."""
        return self.snapshot().bwd.num_edges

    def storage_bytes(self) -> int:
        """Total bytes of all pre-materialized snapshots (both CSR copies)."""
        return sum(s.nbytes() for s in self._snapshots)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NaiveGraph(N={self.num_nodes}, T={self.num_timestamps}, "
            f"current={self._current}, E={self.num_edges})"
        )
