"""Per-snapshot DTDG storage, PyG-T style.

PyG-T "stores DTDGs as separate snapshots": every timestamp keeps its own
COO ``edge_index`` (2×E int64) resident on the device for the whole run.
When consecutive snapshots differ by only a few percent, almost all of that
storage is redundant — the memory-vs-percent-change blow-up of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device import current_device
from repro.graph.dtdg import DTDG

__all__ = ["Snapshot", "SnapshotStore"]


@dataclass
class Snapshot:
    """One timestamp's COO structure, resident for the whole run."""
    edge_index: np.ndarray  # (2, E) int64, device-resident

    @property
    def num_edges(self) -> int:
        """Edge count of this snapshot."""
        return self.edge_index.shape[1]

    def nbytes(self) -> int:
        """Device bytes this snapshot occupies."""
        return int(self.edge_index.nbytes)


class SnapshotStore:
    """All snapshots of a DTDG, pre-materialized as COO arrays."""

    def __init__(self, dtdg: DTDG) -> None:
        alloc = current_device().alloc
        self.num_nodes = dtdg.num_nodes
        self.snapshots: list[Snapshot] = []
        for t in range(dtdg.num_timestamps):
            src, dst = dtdg.snapshot_edges(t)
            ei = alloc.adopt(
                np.ascontiguousarray(np.stack([src, dst])), tag="pygt.snapshot"
            )
            self.snapshots.append(Snapshot(ei))

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, t: int) -> Snapshot:
        return self.snapshots[t]

    def storage_bytes(self) -> int:
        """Total resident bytes across all snapshots (the Figure 8 cost)."""
        return sum(s.nbytes() for s in self.snapshots)
