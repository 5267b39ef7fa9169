"""The ``STGraphBase`` graph abstraction (paper Figure 4).

All graph kinds STGraph can train on present the same interface to the
executor and kernels:

1. **Forward and backward CSR** — the forward pass walks in-neighbors via
   the reverse CSR, the backward pass walks out-neighbors via the direct CSR.
2. **Vertex sorting** — ``node_ids`` in descending in-degree (forward) /
   out-degree (backward) order (Figure 3).
3. **Edge labelling** — both orientations share labels.
4. **Graph properties** — node/edge counts and degree arrays.

Temporal positioning (``get_graph`` / ``get_backward_graph``) implements the
contract of Algorithms 1-2: after ``get_graph(t)`` the object exposes the
snapshot at ``t``; ``get_backward_graph(t)`` repositions during the LIFO
backward walk.

**Snapshot versioning.**  Every graph carries a ``snapshot_version`` that
identifies the *content* of the snapshot it currently exposes.  On a
DTDG-backed graph it is a function of the data,
``dtdg.version_of(position)``: the number of non-empty update batches up to
the position, so no-op batches — zero additions and zero deletions — leave
it untouched; a static graph stays at 0.  ``snapshot_key()`` returns it, and
it is the key the one reuse store is built on: the executor keys
:class:`~repro.compiler.runtime.GraphContext` reuse on it (a context carries
both CSRs and the degrees), so the LIFO backward walk over a sequence reuses
the forward pass's builds instead of re-running Algorithm 3 per timestamp
(see ``docs/EXECUTOR.md``).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.graph.csr import CSR
from repro.obs.spine import emit

__all__ = ["STGraphBase"]


class STGraphBase(abc.ABC):
    """Abstract temporal-graph interface consumed by the executor."""

    #: set by subclasses: "static" | "naive" | "gpma"
    graph_type: str = "base"
    #: content version of the snapshot currently exposed: a read-only
    #: property on the DTDG-backed graphs, 0 forever on a static one.
    snapshot_version: int = 0

    def __init__(self, num_nodes: int, sort_by_degree: bool = True) -> None:
        self.num_nodes = int(num_nodes)
        self.sort_by_degree = bool(sort_by_degree)
        #: whether built snapshots may be reused: the on/off ablation flag of
        #: the executor's GraphContext store.
        self.enable_csr_cache = True
        # Reuse accounting (each bump is also one event of the device totals).
        self.csr_cache_hits = 0
        self.csr_cache_misses = 0
        self.noop_updates_skipped = 0

    # -- snapshot identity -------------------------------------------------
    def snapshot_key(self) -> int:
        """Content identity of the currently exposed snapshot: its version.

        Two calls returning equal keys expose bitwise-identical structure, so
        artifacts built from one (CSRs, :class:`GraphContext`) are valid for
        the other: a no-op boundary reuses the previous timestamp's context.
        """
        return self.snapshot_version

    def _count(self, name: str, n: int = 1) -> None:
        """Bump a reuse counter on self and emit its ``graph.<name>`` event."""
        setattr(self, name, getattr(self, name) + n)
        emit("graph." + name, n)

    def cache_stats(self) -> dict[str, int]:
        """Snapshot-reuse counters (diagnostics / bench reporting)."""
        return {
            "csr_cache_hits": self.csr_cache_hits,
            "csr_cache_misses": self.csr_cache_misses,
            "noop_updates_skipped": self.noop_updates_skipped,
        }

    # -- temporal positioning (Algorithm 1/2 contract) -------------------
    @abc.abstractmethod
    def get_graph(self, timestamp: int) -> "STGraphBase":
        """Position at ``timestamp`` for a forward pass; returns ``self``."""

    @abc.abstractmethod
    def get_backward_graph(self, timestamp: int) -> "STGraphBase":
        """Position at ``timestamp`` for the corresponding backward pass."""

    # -- current-snapshot structure --------------------------------------
    @abc.abstractmethod
    def forward_csr(self) -> CSR:
        """Reverse CSR (in-neighbors) of the current snapshot."""

    @abc.abstractmethod
    def backward_csr(self) -> CSR:
        """Direct CSR (out-neighbors) of the current snapshot."""

    @abc.abstractmethod
    def in_degrees(self) -> np.ndarray:
        """In-degree per vertex of the current snapshot (int64, length N)."""

    @abc.abstractmethod
    def out_degrees(self) -> np.ndarray:
        """Out-degree per vertex of the current snapshot."""

    # -- properties -------------------------------------------------------
    @property
    @abc.abstractmethod
    def num_edges(self) -> int:
        """Edge count of the current snapshot."""

    @property
    def is_dynamic(self) -> bool:
        """Whether structure changes with time (drives Graph Stack usage)."""
        return self.graph_type != "static"

    # -- shared checks ------------------------------------------------------
    def validate_label_consistency(self) -> None:
        """Assert the forward/backward CSRs agree edge-by-edge.

        For every edge (u → v) with label l in the backward CSR, the forward
        CSR must contain (v ← u) with the same label l.
        """
        bwd, fwd = self.backward_csr(), self.forward_csr()
        assert bwd.num_edges == fwd.num_edges
        bwd_pairs = {}
        for u in range(self.num_nodes):
            for v, l in zip(bwd.neighbors(u), bwd.edge_ids(u)):
                bwd_pairs[int(l)] = (int(u), int(v))
        for v in range(self.num_nodes):
            for u, l in zip(fwd.neighbors(v), fwd.edge_ids(v)):
                assert bwd_pairs[int(l)] == (int(u), int(v)), (
                    f"label {l} maps to {bwd_pairs[int(l)]} in bwd CSR "
                    f"but ({u}, {v}) in fwd CSR"
                )
