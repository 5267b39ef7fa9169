"""NaiveGraph: every DTDG snapshot pre-materialized (paper §V-C).

Each snapshot's forward CSR, backward CSR, shared edge labels, degree
arrays, and (when degree-ordered) node ids are built at the snapshot's
index width and "moved to the GPU" (tracked by the device allocator, under
``naive.*`` tags) during preprocessing.  The build is the one every
DTDG-backed graph uses, :func:`~repro.graph.snapshot_builder.build_snapshot_arrays`
over ``dtdg.snapshot_keys(t)``, run once per timestamp inside the
``graph.preprocess`` span.  Accessing a snapshot is then just array
indexing — the fastest option — but "storing each graph snapshot on the GPU
along with additional data such as edge IDs, node IDs, in-degrees array, and
out-degrees array creates a significant memory overhead", which is exactly
what Figure 8 measures.

Positioning and a snapshot's identity (the DTDG's content version) are
:class:`~repro.graph.base.DTDGGraph`'s, the same rule as GPMAGraph's: across
a no-op boundary the executor reuses one context.
"""

from __future__ import annotations

from repro.device import current_device
from repro.graph.base import DTDGGraph
from repro.graph.csr import BuiltSnapshot
from repro.graph.dtdg import DTDG
from repro.graph.snapshot_builder import build_snapshot_arrays
from repro.obs.spine import span

__all__ = ["NaiveGraph"]


class NaiveGraph(DTDGGraph):
    """DTDG with every snapshot pre-materialized (fast access, heavy memory)."""
    graph_type = "naive"

    def __init__(self, dtdg: DTDG, sort_by_degree: bool = False) -> None:
        super().__init__(dtdg, sort_by_degree)
        alloc = current_device().alloc
        with span("graph.preprocess", kind="naive"):
            self._snapshots: list[BuiltSnapshot] = [
                build_snapshot_arrays(dtdg.snapshot_keys(t), self.num_nodes, sort_by_degree, alloc, tag="naive")
                for t in range(dtdg.num_timestamps)
            ]
        # Every snapshot is built exactly once, up front: one
        # csr_cache_misses each.
        self._count("csr_cache_misses", len(self._snapshots))

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
        super().get_graph(self._check_prebuilt(timestamp))
        return self

    def get_backward_graph(self, timestamp: int) -> "NaiveGraph":
        """Point at the pre-built snapshot for the backward step."""
        super().get_backward_graph(self._check_prebuilt(timestamp))
        # The backward walk reuses the forward build: structurally free
        # here, and the one event ``csr_cache_hits`` counts.
        self._count("csr_cache_hits")
        return self

    def snapshot(self) -> BuiltSnapshot:
        """The pre-built snapshot currently pointed at."""
        return self._snapshots[self._pos_time]

    def storage_bytes(self) -> int:
        """Total bytes of all pre-materialized snapshots (both CSR copies)."""
        return sum(s.nbytes() for s in self._snapshots)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NaiveGraph(N={self.num_nodes}, T={self.num_timestamps}, "
            f"current={self.curr_time}, E={self.num_edges})"
        )
