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
that compact CSR.  No build reads the *gapped* view the paper's kernel
reads; it survives as a test oracle (``tests/_snapshot_reference.py``).

This is the training walk's graph (forward, LIFO rewind, a saved state
between sequences).  Serving only ever moves to the newest snapshot and
builds it from the DTDG's keys instead; no serving path holds a PMA
(:mod:`repro.serve.engine`).

Snapshots are **versioned** by the data: the content version of timestamp
``t`` is ``dtdg.version_of(t)``, the number of non-empty update batches in
``1..t`` (a no-op boundary keeps the version, since the content is
identical).  Positioning is therefore **logical**, always: ``get_graph`` /
``get_backward_graph`` set the timestamp, and the PMA replays update batches
only when a snapshot has to be built or the storage is read.

The graph keeps **no** build: ``snapshot()`` catches the PMA up and runs
relabelling + Algorithm 3 on every call.  Built snapshots live in the
executor's ``snapshot_key() -> GraphContext`` LRU, the one store: the LIFO
backward walk over a training sequence takes its contexts from there, so it
neither re-runs relabelling + Algorithm 3 nor rewinds the PMA (the paper
rewinds because it keeps no built CSR; see DESIGN.md).  The mutable position
lives in an :class:`~repro.graph.snapshot_builder.UpdateCursor`.

All structural work is attributed to the ``graph_update`` category through
three sites of the telemetry spine, one call each: ``graph.advance``
(Algorithm 2's replay of update batches, where the PMA catches up with the
position), ``graph.build_snapshot`` (relabel + Algorithm 3) and
``graph.cache_state`` (Algorithm 2 line 10).  The logical move itself is not
recorded: it replays nothing.  Figure 9 plots the split.
"""

from __future__ import annotations

from repro.device import current_device
from repro.graph.base import STGraphBase
from repro.graph.dtdg import DTDG
from repro.graph.snapshot_builder import BuiltSnapshot, UpdateCursor, build_snapshot_arrays
from repro.obs.spine import span
from repro.resilience.faults import current_injector

__all__ = ["GPMAGraph"]


class GPMAGraph(STGraphBase):
    """DTDG as base graph + PMA-backed updates; snapshots built on demand (Algorithm 2)."""
    graph_type = "gpma"

    def __init__(
        self,
        dtdg: DTDG,
        sort_by_degree: bool = False,
        enable_cache: bool = True,
    ) -> None:
        self.dtdg = dtdg
        with span("graph.preprocess", kind="gpma"):
            self._cursor = UpdateCursor(dtdg, enable_cache=enable_cache)
        # Logical position: the timestamp this graph *claims*.  The physical
        # PMA only catches up when a snapshot has to be built or the storage
        # itself is read (see _advance).
        self._pos_time = 0
        super().__init__(dtdg.num_nodes, sort_by_degree)
        self.enable_cache = enable_cache
        # Planned cache-corruption faults that dropped the saved PMA state.
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
        self._advance(int(timestamp))
        return self

    def get_backward_graph(self, timestamp: int) -> "GPMAGraph":
        """Reverse update to ``timestamp``; the backward pass then reads the
        out-CSR (the "graph has to be reversed" part is the forward CSR,
        already produced by Algorithm 3)."""
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
        self._pos_time = t

    def _catch_up(self) -> None:
        """Bring the physical cursor to the logical position (Algorithm 2's replay)."""
        if self._cursor.time != self._pos_time:
            with span("graph.advance", t=self._pos_time):
                self._cursor.advance(self._pos_time)

    # ------------------------------------------------------------------
    # Snapshot materialization (relabel + Algorithm 3)
    # ------------------------------------------------------------------
    def snapshot(self) -> BuiltSnapshot:
        """Build the current snapshot: one ``csr_cache_misses``.

        Replays the batches that lead to the logical position (Algorithm 2),
        then relabels and runs Algorithm 3 over the PMA's keys.  Nothing is
        kept: the executor's context LRU stores what it builds.

        A planned ``"cache"`` fault (``use_fault_plan``) marks the saved PMA
        state as corrupted and drops it; the build then reads the PMA's
        authoritative storage as always.  Counted as
        ``cache_fault_rebuilds``.
        """
        injector = current_injector()
        if injector.enabled and injector.take("cache") is not None:
            self._cursor.drop_cache()
            self._count("cache_fault_rebuilds")
        pma = self.pma
        with span("graph.build_snapshot", t=self.curr_time, edges=pma.n_items):
            snap = build_snapshot_arrays(
                pma.export_items(), self.num_nodes, self.sort_by_degree, current_device().alloc
            )
        self._count("csr_cache_misses")
        return snap

    @property
    def num_edges(self) -> int:
        """Edge count of the snapshot at :attr:`curr_time`."""
        return self.dtdg.snapshot_edge_count(self._pos_time)

    def storage_bytes(self) -> int:
        """Persistent PMA storage (snapshot CSRs are transient)."""
        return int(self.pma.keys.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GPMAGraph(N={self.num_nodes}, t={self.curr_time}, "
            f"E={self.num_edges}, pma_capacity={self.pma.capacity})"
        )
