"""STGraph-side dataset containers.

A dataset bundles a graph object (ready for the executor), per-timestamp
features/targets, and conversion to the PyG-T signal iterators so the same
data drives both frameworks in benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.pygt.signal import DynamicGraphTemporalSignal, StaticGraphTemporalSignal
from repro.graph.csr import edge_density
from repro.graph.dtdg import DTDG
from repro.graph.gpma_graph import GPMAGraph
from repro.graph.naive import NaiveGraph
from repro.graph.static import StaticGraph

__all__ = ["StaticTemporalDataset", "DynamicTemporalDataset"]


@dataclass
class StaticTemporalDataset:
    """Static structure + temporal node signal (Definition II.1)."""

    name: str
    src: np.ndarray
    dst: np.ndarray
    num_nodes: int
    features: list[np.ndarray] = field(repr=False)  # (N, F) per timestamp
    targets: list[np.ndarray] = field(repr=False)  # (N, 1) per timestamp

    @property
    def num_edges(self) -> int:
        """Edge count of the static structure."""
        return len(self.src)

    @property
    def num_timestamps(self) -> int:
        """Number of feature/target timestamps."""
        return len(self.features)

    @property
    def feature_size(self) -> int:
        """Columns per node feature matrix."""
        return self.features[0].shape[1]

    def density(self) -> float:
        """Directed edge density (drives the Figure 5/6 regimes)."""
        return edge_density(self.num_nodes, self.num_edges)

    def build_graph(self, sort_by_degree: bool = False) -> StaticGraph:
        """Construct the STGraph StaticGraph for training."""
        return StaticGraph(self.src, self.dst, self.num_nodes, sort_by_degree)

    def to_pygt_signal(self) -> StaticGraphTemporalSignal:
        """The same data as a PyG-T static signal iterator."""
        edge_index = np.stack([self.src, self.dst]).astype(np.int64)
        return StaticGraphTemporalSignal(edge_index, self.features, list(self.targets))

    def summary_row(self) -> dict:
        """Table II row for this dataset."""
        return {
            "dataset": self.name,
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "timestamps": self.num_timestamps,
            "type": "Static",
            "density": round(self.density(), 4),
        }


@dataclass
class DynamicTemporalDataset:
    """DTDG + per-timestamp features (Definition II.2), link-prediction style."""

    name: str
    dtdg: DTDG
    features: list[np.ndarray] = field(repr=False)

    @property
    def num_nodes(self) -> int:
        """Shared vertex-universe size."""
        return self.dtdg.num_nodes

    @property
    def num_timestamps(self) -> int:
        """Number of snapshots."""
        return self.dtdg.num_timestamps

    @property
    def feature_size(self) -> int:
        """Columns per node feature matrix."""
        return self.features[0].shape[1]

    def build_naive(self, sort_by_degree: bool = False) -> NaiveGraph:
        """Construct the snapshot-materializing NaiveGraph."""
        return NaiveGraph(self.dtdg, sort_by_degree)

    def build_gpma(self, sort_by_degree: bool = False, enable_cache: bool = True) -> GPMAGraph:
        """Construct the on-demand GPMAGraph."""
        return GPMAGraph(self.dtdg, sort_by_degree, enable_cache)

    def to_pygt_signal(self) -> DynamicGraphTemporalSignal:
        """The same data as a PyG-T dynamic signal iterator."""
        edge_indices = []
        for t in range(self.num_timestamps):
            s, d = self.dtdg.snapshot_edges(t)
            edge_indices.append(np.stack([s, d]))
        return DynamicGraphTemporalSignal(edge_indices, self.features, [None] * self.num_timestamps)

    def summary_row(self) -> dict:
        """Table II row for this dataset."""
        return {
            "dataset": self.name,
            "nodes": self.num_nodes,
            "edges": max(self.dtdg.snapshot_edge_count(t) for t in range(self.num_timestamps)),
            "timestamps": self.num_timestamps,
            "type": "Dynamic",
            "max_pct_change": round(self.dtdg.max_percent_change(), 2),
        }
