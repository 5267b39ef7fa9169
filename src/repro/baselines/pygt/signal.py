"""Temporal signal iterators (the PyG-T dataset API).

PyG-T exposes datasets as iterators of per-timestamp snapshots; both the
baseline and STGraph's dataloaders build on these so benchmark code can
iterate either framework identically.

PyG-T "stores DTDGs as separate snapshots": every timestamp's COO
``edge_index`` (2×E int64) stays resident on the device for the whole run,
so a signal adopts its ``edge_index`` arrays on the current device (tag
``pygt.snapshot``).  When consecutive snapshots differ by a few percent,
almost all of that storage is redundant — the memory-vs-percent-change
blow-up of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.device import current_device

__all__ = ["TemporalSnapshot", "StaticGraphTemporalSignal", "DynamicGraphTemporalSignal"]


@dataclass
class TemporalSnapshot:
    """One timestamp: structure + features + targets."""

    edge_index: np.ndarray  # (2, E)
    x: np.ndarray  # (N, F)
    y: np.ndarray | None  # targets (task-dependent)


class StaticGraphTemporalSignal:
    """Fixed ``edge_index``, per-timestamp features/targets."""

    def __init__(
        self,
        edge_index: np.ndarray,
        features: list[np.ndarray],
        targets: list[np.ndarray | None],
    ) -> None:
        if len(features) != len(targets):
            raise ValueError("features/targets length mismatch")
        self.edge_index = current_device().alloc.adopt(
            np.asarray(edge_index, dtype=np.int64), tag="pygt.snapshot"
        )
        self.features = features
        self.targets = targets

    @property
    def snapshot_count(self) -> int:
        """Number of timestamps."""
        return len(self.features)

    def __len__(self) -> int:
        return self.snapshot_count

    def __getitem__(self, t: int) -> TemporalSnapshot:
        return TemporalSnapshot(self.edge_index, self.features[t], self.targets[t])

    def __iter__(self) -> Iterator[TemporalSnapshot]:
        for t in range(self.snapshot_count):
            yield self[t]


class DynamicGraphTemporalSignal:
    """Per-timestamp ``edge_index`` + features/targets."""

    def __init__(
        self,
        edge_indices: list[np.ndarray],
        features: list[np.ndarray],
        targets: list[np.ndarray | None],
    ) -> None:
        if not (len(edge_indices) == len(features) == len(targets)):
            raise ValueError("edge_indices/features/targets length mismatch")
        alloc = current_device().alloc
        self.edge_indices = [
            alloc.adopt(np.asarray(e, dtype=np.int64), tag="pygt.snapshot") for e in edge_indices
        ]
        self.features = features
        self.targets = targets

    @property
    def snapshot_count(self) -> int:
        """Number of timestamps."""
        return len(self.features)

    def __len__(self) -> int:
        return self.snapshot_count

    def __getitem__(self, t: int) -> TemporalSnapshot:
        return TemporalSnapshot(self.edge_indices[t], self.features[t], self.targets[t])

    def __iter__(self) -> Iterator[TemporalSnapshot]:
        for t in range(self.snapshot_count):
            yield self[t]
