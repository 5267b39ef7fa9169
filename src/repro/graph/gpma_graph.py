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

Snapshots are **versioned** by the data: the content version of timestamp
``t`` is ``dtdg.version_of(t)``, the number of non-empty update batches in
``1..t`` (a no-op boundary keeps the version, since the content is
identical).  Positioning is therefore **logical**, always: ``get_graph`` /
``get_backward_graph`` set the timestamp, and the PMA replays update batches
only when a snapshot has to be built or the storage is read.

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
        with span("graph.preprocess", kind="gpma"):
            self._cursor = UpdateCursor(dtdg, enable_cache=enable_cache)
        # Logical position: the timestamp this graph *claims*.  The physical
        # PMA only catches up when a snapshot has to be built or the storage
        # itself is read (see _advance).
        self._pos_time = 0
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
        """Content version of the currently exposed snapshot."""
        return self.dtdg.version_of(self._pos_time)

    @property
    def update_batches_applied(self) -> int:
        """Non-empty update batches the main cursor has applied."""
        return self._cursor.update_batches_applied

    @property
    def cache_restores(self) -> int:
        """Times the main cursor restored its saved PMA state."""
        return self._cursor.cache_restores

    # ------------------------------------------------------------------
    # Algorithm 2: temporal positioning
    # ------------------------------------------------------------------
    def get_graph(self, timestamp: int) -> "GPMAGraph":
        """Get-Graph(G, t): position at ``t``; update batches (with cache
        retrieval) are applied when the snapshot is built."""
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

    def _advance(self, t: int) -> None:
        """Position at ``t``: a logical move, on every visit.

        The content identity of ``t`` is ``dtdg.version_of(t)``, known
        without replaying a single update batch.  The physical PMA stays
        parked and only catches up when a snapshot is built or the storage
        is read — the LIFO backward walk, served from the executor's
        contexts, does no structural graph work at all.  A move that changes
        the timestamp and not the version crossed only no-op boundaries.
        """
        version = self.dtdg.version_of(t)  # IndexError outside [0, T)
        if t != self._pos_time and version == self.snapshot_version:
            self._count("noop_updates_skipped")
        self._reuse_counted = False
        self._pos_time = t

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
        self._install(snap, self.snapshot_version)

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
        if self._built_version == self.snapshot_version:
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
