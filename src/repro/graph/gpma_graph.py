"""GPMAGraph: DTDG as a base graph + temporal updates in a PMA (paper §V-D).

Snapshots are constructed *on demand* (Algorithm 2): the PMA holds the
current snapshot's edge set as sorted ``src * N + dst`` keys with SPACE gaps;
moving between timestamps applies batched edge insertions/deletions.  The
state slot avoids replaying a whole sequence of updates when training
advances from one sequence to the next (Algorithm 2 lines 1-5 / 10).

Whenever a snapshot is built it is **relabelled** (Algorithm 2 line 8):
labels are the ranks of the surviving keys, so the forward and backward CSR
of the same snapshot always agree.  The backward (out-)CSR falls out of one
compaction of the PMA; the forward (reverse) CSR is Algorithm 3 —
:func:`repro.graph.reverse.reverse_gpma_vectorized`, a counting sort over
that compact CSR.  The *gapped* view the paper's kernel reads is still
available (:meth:`GPMAGraph.gapped_csr`) but a build does not pay for it.

Snapshots are **versioned**: every timestamp is assigned a stable snapshot
version the first time its content is realized (no-op update batches reuse
the previous timestamp's version, since the content is identical).
Positioning is **logical**: once a timestamp's version is known,
``get_graph`` / ``get_backward_graph`` only resolve that identity, and the
PMA replays update batches when a snapshot actually has to be built.

The graph keeps **one** build, the one it currently exposes; it is valid
for as long as the position's version equals the build's.  Built snapshots
of other timestamps live in the executor's ``snapshot_key() ->
GraphContext`` LRU, the only multi-entry store: the LIFO backward walk over
a training sequence takes its contexts from there, so it neither re-runs
relabelling + Algorithm 3 nor rewinds the PMA (the paper rewinds because it
keeps no built CSR; see DESIGN.md).  The mutable position lives in an
:class:`~repro.graph.snapshot_builder.UpdateCursor`.

All structural work is attributed to the ``graph_update`` category through
three sites of the telemetry spine, one call each: ``graph.position``
(Get-Graph / Get-Backward-Graph), ``graph.build_snapshot`` (relabel +
Algorithm 3) and ``graph.cache_state`` (Algorithm 2 line 10).  Figure 9
plots the split.
"""

from __future__ import annotations

import numpy as np

from repro.device import current_device
from repro.graph.base import STGraphBase
from repro.graph.csr import CSR
from repro.graph.dtdg import DTDG
from repro.graph.snapshot_builder import (
    BuiltSnapshot,
    SnapshotVersionMap,
    UpdateCursor,
    build_snapshot_arrays,
    gapped_csr_arrays,
)
from repro.obs.spine import span
from repro.resilience.faults import current_injector

__all__ = ["GPMAGraph"]


class GPMAGraph(STGraphBase):
    """DTDG as base graph + PMA-backed updates; snapshots built on demand (Algorithm 2)."""
    graph_type = "gpma"

    def __init__(
        self,
        dtdg: DTDG,
        sort_by_degree: bool = True,
        enable_cache: bool = True,
        enable_csr_cache: bool = True,
    ) -> None:
        self.dtdg = dtdg
        self._versions = SnapshotVersionMap()
        with span("graph.preprocess", kind="gpma"):
            self._cursor = UpdateCursor(
                dtdg,
                self._versions,
                enable_cache=enable_cache,
                on_noop=lambda: self._count("noop_updates_skipped"),
            )
        # Logical position: the (timestamp, version) identity this graph
        # *claims*.  Positioning is deferred — once a timestamp's version is
        # known the identity is resolved from the version map and the
        # physical PMA only catches up when a snapshot has to be built or
        # the storage itself is read (see _advance).
        self._pos_time = 0
        self._pos_version = 0
        # Version of the installed _fwd/_bwd artifacts (None = none valid).
        self._built_version: int | None = None
        super().__init__(dtdg.num_nodes, sort_by_degree)
        self.enable_cache = enable_cache
        # Ablation flag of the executor's context store (and of the hit
        # accounting below); the installed build is served either way.
        self.enable_csr_cache = bool(enable_csr_cache)
        self._fwd: CSR | None = None
        self._bwd: CSR | None = None
        self._in_deg: np.ndarray | None = None
        self._out_deg: np.ndarray | None = None
        # One hit/miss is recorded per temporal positioning (not per CSR
        # accessor call); reset on every _advance.
        self._reuse_counted = False
        # Planned cache-corruption faults that forced Algorithm-3 rebuilds.
        self.cache_fault_rebuilds = 0

    # ------------------------------------------------------------------
    # Mutable-core delegation (the update cursor owns position state)
    # ------------------------------------------------------------------
    @property
    def pma(self):
        """The PMA holding the snapshot at :attr:`curr_time`.

        Positioning is deferred (see :meth:`_advance`), so reading the
        storage is what brings the physical cursor to the logical position.
        """
        self._catch_up()
        return self._cursor.pma

    @property
    def curr_time(self) -> int:
        """Timestamp this graph is logically positioned at."""
        return self._pos_time

    @property
    def snapshot_version(self) -> int:
        """Stable content version of the currently exposed snapshot."""
        return self._pos_version

    @snapshot_version.setter
    def snapshot_version(self, value: int) -> None:
        self._pos_version = int(value)
        self._cursor.version = int(value)

    @property
    def update_batches_applied(self) -> int:
        """Non-empty update batches the main cursor has applied."""
        return self._cursor.update_batches_applied

    @property
    def cache_restores(self) -> int:
        """Times the main cursor restored its saved PMA state."""
        return self._cursor.cache_restores

    @property
    def _ts_versions(self) -> dict[int, int]:
        """Copy of the timestamp -> version assignments (tests/diagnostics)."""
        return self._versions.as_dict()

    # ------------------------------------------------------------------
    # Algorithm 2: temporal positioning
    # ------------------------------------------------------------------
    def get_graph(self, timestamp: int) -> "GPMAGraph":
        """Get-Graph(G, t): position at ``t``; update batches (with cache
        retrieval) are applied when the snapshot is first visited or built."""
        return self._position(timestamp)

    def get_backward_graph(self, timestamp: int) -> "GPMAGraph":
        """Reverse update to ``timestamp``; the backward pass then reads the
        out-CSR (the "graph has to be reversed" part is the forward CSR,
        already produced by Algorithm 3)."""
        return self._position(timestamp)

    def _position(self, timestamp: int) -> "GPMAGraph":
        with span("graph.position", t=int(timestamp)):
            self._advance(int(timestamp))
        return self

    def cache_snapshot(self) -> None:
        """Algorithm 2 line 10: save the current PMA state.

        The executor calls this at the end of a sequence's forward pass so
        that, if the backward pass has to rewind the PMA (a build the
        executor's store did not serve), the next sequence resumes from here
        with a single update batch.
        """
        if not self.enable_cache or self._cursor.time != self._pos_time:
            # A cursor that lags the logical position served this sequence
            # from built snapshots: there is no state worth saving.
            return
        with span("graph.cache_state", t=self._pos_time):
            self._cursor.cache_state()

    def snapshot_key(self) -> tuple:
        """Content identity of the snapshot the PMA currently holds.

        The stable version alone identifies content: no-op chains share a
        version, a revisited timestamp restores its recorded one, and fresh
        versions are only ever allocated for newly realized content — so a
        version match implies bitwise-identical structure.  The executor
        keys :class:`~repro.compiler.runtime.GraphContext` reuse on this,
        which lets a no-op boundary reuse the previous timestamp's context.
        """
        return (None, self.snapshot_version)

    # ------------------------------------------------------------------
    # Checkpoint/resume: snapshot-version cursor
    # ------------------------------------------------------------------
    def version_cursor(self) -> dict:
        """JSON-ready snapshot-version bookkeeping for checkpoint/resume.

        Captures the temporal position plus the stable per-timestamp version
        assignments, so a resumed run (in a fresh process, with a freshly
        built graph) reproduces the same ``(timestamp, version)`` cache keys
        the killed run would have used.  Content is always rebuilt from the
        DTDG itself — the cursor restores bookkeeping, not edges.
        """
        return {
            "curr_time": int(self.curr_time),
            "snapshot_version": int(self.snapshot_version),
            "version_counter": int(self._versions.counter),
            "ts_versions": {str(t): int(v) for t, v in self._versions.as_dict().items()},
        }

    def restore_version_cursor(self, cursor: dict) -> None:
        """Reposition at the cursor's timestamp and restore its version map.

        The PMA replays update batches to reach ``curr_time`` (allocating
        throwaway versions along the way), then the recorded assignments
        overwrite the bookkeeping.  The saved PMA state and the installed
        build are dropped (they were minted under the throwaway versions).
        """
        self.get_graph(int(cursor["curr_time"]))
        self._catch_up()  # the version written below is the physical cursor's too
        self._versions.restore(
            {int(t): int(v) for t, v in cursor["ts_versions"].items()},
            int(cursor["version_counter"]),
        )
        self.snapshot_version = int(cursor["snapshot_version"])
        self._cursor.drop_cache()
        self._built_version = None

    def _advance(self, t: int) -> None:
        """Position at ``t`` — logically whenever its version is known.

        Positioning only has to resolve the ``(t, version)`` content
        identity: once ``t`` has been realized, the version map knows it
        without replaying a single update batch.  The physical PMA stays
        parked and only catches up when a snapshot is built or the storage
        is read — the LIFO backward walk, served from the executor's
        contexts, does no structural graph work at all.  If the version is
        still unknown this is a first visit and the cursor advances
        physically (Algorithm 2), allocating the version.
        """
        self._reuse_counted = False
        version = self._versions.get(t)
        if version is not None:
            self._pos_time = t
            self._pos_version = version
            return
        self._cursor.advance(t)
        self._pos_time = self._cursor.time
        self._pos_version = self._cursor.version

    def _catch_up(self) -> None:
        """Bring the physical cursor to the logical position (Algorithm 2's replay)."""
        if self._cursor.time != self._pos_time:
            self._cursor.advance(self._pos_time)

    # ------------------------------------------------------------------
    # Snapshot materialization (relabel + Algorithm 3)
    # ------------------------------------------------------------------
    def gapped_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The gapped CSR view over the raw PMA storage.

        Returns ``(row_offset, col_indices, eids)`` where ``row_offset[i]``
        indexes the first slot that could hold an edge of source ``i`` and
        gap slots carry ``SPACE`` — the exact input shape of Algorithm 3.
        """
        return gapped_csr_arrays(self.pma, self.num_nodes)

    def _install(self, snap: BuiltSnapshot, version: int) -> None:
        self._fwd, self._bwd = snap.fwd, snap.bwd
        self._in_deg, self._out_deg = snap.in_deg, snap.out_deg
        self._built_version = int(version)

    def _rebuild(self) -> None:
        pma = self.pma  # Algorithm 2: replay the batches that lead here
        with span("graph.build_snapshot", t=self.curr_time, edges=pma.n_items):
            snap = build_snapshot_arrays(
                pma, self.num_nodes, self.sort_by_degree, current_device().alloc
            )
        self._install(snap, self._pos_version)

    def _ensure_built(self) -> None:
        """Serve the current snapshot's artifacts from the installed build.

        One ``csr_cache_hits``/``csr_cache_misses`` event is recorded per
        temporal positioning: a hit when the installed build already has the
        position's version (a no-op chain, a revisit, a second accessor), a
        miss when relabelling + Algorithm 3 had to run.

        A planned ``"cache"`` fault (``use_fault_plan``) marks the installed
        build and the saved PMA state as corrupted; the graph then rebuilds
        from the PMA's authoritative storage.  Counted as
        ``cache_fault_rebuilds``.
        """
        injector = current_injector()
        if injector.enabled and injector.take("cache") is not None:
            self._cursor.drop_cache()
            self._built_version = None  # the rebuild below replaces all four arrays
            self._count("cache_fault_rebuilds")
        # The stable version alone is content identity, so the installed
        # artifacts are valid whenever their version matches the logical
        # position's — across no-op chains and backward revisits alike.
        if self._built_version == self._pos_version:
            if self.enable_csr_cache and not self._reuse_counted:
                self._reuse_counted = True
                self._count("csr_cache_hits")
            return
        self._rebuild()
        if not self._reuse_counted:
            self._reuse_counted = True
            self._count("csr_cache_misses")

    def forward_csr(self) -> CSR:
        """Current snapshot's reverse CSR (Algorithm 3)."""
        self._ensure_built()
        return self._fwd

    def backward_csr(self) -> CSR:
        """Current snapshot's direct CSR (straight from the sorted PMA keys)."""
        self._ensure_built()
        return self._bwd

    def in_degrees(self) -> np.ndarray:
        """Current snapshot's in-degrees."""
        self._ensure_built()
        return self._in_deg

    def out_degrees(self) -> np.ndarray:
        """Current snapshot's out-degrees."""
        self._ensure_built()
        return self._out_deg

    @property
    def num_edges(self) -> int:
        """Edge count of the snapshot at :attr:`curr_time`."""
        return self.dtdg.snapshot_edge_count(self._pos_time)

    def storage_bytes(self) -> int:
        """Persistent PMA storage (snapshot CSRs are transient)."""
        return int(self.pma.keys.nbytes + self.pma.values.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GPMAGraph(N={self.num_nodes}, t={self.curr_time}, "
            f"E={self.num_edges}, pma_capacity={self.pma.capacity})"
        )
