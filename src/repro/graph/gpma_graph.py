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
identical).  Positioning is therefore **logical**, always, and is
:class:`~repro.graph.base.DTDGGraph`'s: the PMA replays update batches only
when a snapshot has to be built or the storage is read.

The graph keeps **no** build: ``snapshot()`` (the base class's one build)
reads the caught-up PMA's keys through ``_keys()`` and runs relabelling +
Algorithm 3 on every call.  Built snapshots live in the
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

import numpy as np

from repro.graph.base import DTDGGraph
from repro.graph.dtdg import DTDG
from repro.graph.snapshot_builder import UpdateCursor
# The build is DTDGGraph's; the name stays importable from here, where the
# benchmark probe's tests look for it (benchmarks/e2e/test_probe.py).
from repro.graph.snapshot_builder import build_snapshot_arrays  # noqa: F401
from repro.obs.spine import span
from repro.resilience.faults import current_injector

__all__ = ["GPMAGraph"]


class GPMAGraph(DTDGGraph):
    """DTDG as base graph + PMA-backed updates; snapshots built on demand (Algorithm 2)."""
    graph_type = "gpma"

    def __init__(
        self,
        dtdg: DTDG,
        sort_by_degree: bool = False,
        enable_cache: bool = True,
    ) -> None:
        with span("graph.preprocess", kind="gpma"):
            self._cursor = UpdateCursor(dtdg, enable_cache=enable_cache)
        super().__init__(dtdg, sort_by_degree)
        self.enable_cache = enable_cache
        # Planned cache-corruption faults that dropped the saved PMA state.
        self.cache_fault_rebuilds = 0

    # ------------------------------------------------------------------
    # Mutable-core delegation (the update cursor owns position state)
    # ------------------------------------------------------------------
    @property
    def pma(self):
        """The PMA holding the snapshot at :attr:`curr_time`.

        Positioning is logical, so reading the storage is what brings the
        physical cursor to the logical position.
        """
        self._catch_up()
        return self._cursor.pma

    @property
    def update_batches_applied(self) -> int:
        """Non-empty update batches the main cursor has applied."""
        return self._cursor.update_batches_applied

    @property
    def cache_restores(self) -> int:
        """Times the main cursor restored its saved PMA state."""
        return self._cursor.cache_restores

    # ------------------------------------------------------------------
    # Algorithm 2: the PMA's replay and its state slot
    # ------------------------------------------------------------------
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

    def _catch_up(self) -> None:
        """Bring the physical cursor to the logical position (Algorithm 2's replay)."""
        if self._cursor.time != self._pos_time:
            with span("graph.advance", t=self._pos_time):
                self._cursor.advance(self._pos_time)

    def _keys(self) -> np.ndarray:
        """The caught-up PMA's keys, for the base class's one build.

        A planned ``"cache"`` fault (``use_fault_plan``) marks the saved PMA
        state as corrupted and drops it; the build then reads the PMA's
        authoritative storage as always.  Counted as
        ``cache_fault_rebuilds``.
        """
        injector = current_injector()
        if injector.enabled and injector.take("cache") is not None:
            self._cursor.drop_cache()
            self._count("cache_fault_rebuilds")
        return self.pma.export_items()

    def storage_bytes(self) -> int:
        """Persistent PMA storage (snapshot CSRs are transient)."""
        return int(self.pma.keys.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GPMAGraph(N={self.num_nodes}, t={self.curr_time}, "
            f"E={self.num_edges}, pma_capacity={self.pma.capacity})"
        )
