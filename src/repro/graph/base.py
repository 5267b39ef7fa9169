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
it is the key the one store of built snapshots is built on: the executor
keys :class:`~repro.compiler.runtime.GraphContext` reuse on it (a context
carries both CSRs and the degrees), so the LIFO backward walk over a
sequence reuses the forward pass's builds instead of re-running Algorithm 3
per timestamp (see ``docs/EXECUTOR.md``).

**One structure method.**  ``snapshot()`` returns the current position's
:class:`~repro.graph.csr.BuiltSnapshot`; ``forward_csr`` / ``backward_csr``
/ ``in_degrees`` / ``out_degrees`` read it.  ``StaticGraph`` and
``NaiveGraph`` return what preprocessing built; ``GPMAGraph`` builds on
every call, counts one ``csr_cache_misses`` and keeps no build.  Serving's
live view counts the same and keeps one build, its last: the arrays its
one-entry context store holds, which a small update batch patches forward.

**One DTDG graph.**  :class:`DTDGGraph` is the base of ``NaiveGraph``,
``GPMAGraph`` and serving's live view: one logical position and one build,
:func:`~repro.graph.snapshot_builder.build_snapshot_arrays` over the keys
its ``_keys()`` hook returns (``NaiveGraph`` runs it once per timestamp up
front and keeps the results).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.device import current_device
from repro.graph.csr import BuiltSnapshot, CSR
from repro.graph.dtdg import DTDG
from repro.graph.snapshot_builder import build_snapshot_arrays
from repro.obs.spine import emit, span

__all__ = ["DTDGGraph", "STGraphBase"]


class STGraphBase(abc.ABC):
    """Abstract temporal-graph interface consumed by the executor."""

    #: set by subclasses: "static" | "naive" | "gpma" | "live" (serving)
    graph_type: str = "base"
    #: content version of the snapshot currently exposed: a read-only
    #: property on the DTDG-backed graphs, 0 forever on a static one.
    snapshot_version: int = 0

    def __init__(self, num_nodes: int, sort_by_degree: bool = False) -> None:
        self.num_nodes = int(num_nodes)
        self.sort_by_degree = bool(sort_by_degree)
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
    def snapshot(self) -> BuiltSnapshot:
        """The current snapshot's CSRs and degrees.

        A GPMA graph builds it on every call and keeps nothing: the
        executor's context LRU is the one store of built snapshots (serving's
        live view keeps the build its one context holds, and patches it).
        """

    def forward_csr(self) -> CSR:
        """Reverse CSR (in-neighbors) of the current snapshot."""
        return self.snapshot().fwd

    def backward_csr(self) -> CSR:
        """Direct CSR (out-neighbors) of the current snapshot."""
        return self.snapshot().bwd

    def in_degrees(self) -> np.ndarray:
        """In-degree per vertex of the current snapshot (length N, at the
        snapshot's index width: :func:`~repro.graph.csr.index_dtype`)."""
        return self.snapshot().in_deg

    def out_degrees(self) -> np.ndarray:
        """Out-degree per vertex of the current snapshot."""
        return self.snapshot().out_deg

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
        snap = self.snapshot()
        bwd, fwd = snap.bwd, snap.fwd
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


class DTDGGraph(STGraphBase):
    """A graph over a DTDG: logical positioning and the one snapshot build.

    Positioning is a logical move, always: ``get_graph`` /
    ``get_backward_graph`` set the timestamp, and the content identity of a
    timestamp is ``dtdg.version_of(t)``, known without building anything.  A
    move that changes the timestamp and not the version crossed only no-op
    boundaries (one ``noop_updates_skipped``).  ``snapshot()`` builds from
    the sorted unique edge keys :meth:`_keys` returns, one
    ``graph.build_snapshot`` span and one ``csr_cache_misses`` per call, and
    keeps nothing: the executor's context LRU stores what it builds.
    Serving's live view overrides ``snapshot()`` to keep its last build and
    patch it when one small update separates it from the position
    (``repro/serve/engine.py``).
    """

    def __init__(self, dtdg: DTDG, sort_by_degree: bool = False) -> None:
        super().__init__(dtdg.num_nodes, sort_by_degree)
        self.dtdg = dtdg
        self._pos_time = 0

    @property
    def curr_time(self) -> int:
        """Timestamp this graph is logically positioned at."""
        return self._pos_time

    @property
    def snapshot_version(self) -> int:
        """Content version of the currently exposed snapshot."""
        return self.dtdg.version_of(self._pos_time)

    @property
    def num_edges(self) -> int:
        """Edge count of the snapshot at :attr:`curr_time`."""
        return self.dtdg.snapshot_edge_count(self._pos_time)

    def get_graph(self, timestamp: int) -> "DTDGGraph":
        """Position at ``timestamp``; nothing is built until :meth:`snapshot`."""
        self._move(int(timestamp))
        return self

    def get_backward_graph(self, timestamp: int) -> "DTDGGraph":
        """Position at ``timestamp`` for the backward step (the same move)."""
        self._move(int(timestamp))
        return self

    def _move(self, t: int) -> None:
        version = self.dtdg.version_of(t)  # IndexError outside [0, T)
        if t != self._pos_time and version == self.snapshot_version:
            self._count("noop_updates_skipped")
        self._pos_time = t

    def _keys(self) -> np.ndarray:
        """The current snapshot's sorted unique ``src * N + dst`` keys: the
        DTDG's own, unless a subclass stores them elsewhere (GPMA's PMA)."""
        return self.dtdg.snapshot_keys(self._pos_time)

    def snapshot(self) -> BuiltSnapshot:
        """Build the current snapshot from :meth:`_keys`: one ``csr_cache_misses``."""
        keys = self._keys()
        with span("graph.build_snapshot", t=self._pos_time, edges=len(keys)):
            snap = build_snapshot_arrays(keys, self.num_nodes, self.sort_by_degree, current_device().alloc)
        self._count("csr_cache_misses")
        return snap
