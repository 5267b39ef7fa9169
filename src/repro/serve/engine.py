"""Request-batched online inference over a live (evolving) DTDG.

The :class:`InferenceEngine` answers point queries — "the embedding (or
prediction) of vertex ``v`` at the latest time" — while update batches keep
landing on the same graph.  Serving only ever moves to the newest snapshot,
whose sorted edge keys :meth:`~repro.graph.dtdg.DTDG.append_update` has
already computed, so the engine builds that snapshot's CSRs straight from
them once, at boot (:class:`_LiveGraph`, a
:class:`~repro.graph.base.DTDGGraph` over the DTDG's own keys).  No serving
path holds a PMA or an ``UpdateCursor``: the GPMA and Algorithm 2 serve the
training walk (forward, LIFO rewind, a saved state between sequences).
The executor's context store, the one store of built snapshots, holds the
live version only (``ctx_cache_size=1``), and the live graph keeps the
same arrays: its last build.  Ingest moves to the new version through that
store, which drops the superseded context, and the live graph patches its
build by the batch (:func:`~repro.graph.snapshot_builder.patch_snapshot`,
Algorithm 2's idea on the built arrays: O(E + N) with no decode, count or
transpose), releasing the superseded arrays before it adopts the patched
ones.  A batch too large for the patch to pay, or several batches that
landed since the last build (ingest without invalidation builds nothing
until the next forward), take the full build instead.  A forward drops
the previous output before it recomputes every row, so one snapshot build
is held after every ingest and every forward.
Two ideas make serving cheap on top of the training machinery:

* **Request coalescing.**  Point queries from concurrent clients are
  enqueued and served by one dispatcher thread that folds every pending
  request into a single batch: one ``no_grad()`` forward through the
  existing ProgramPlan cache and keyed ``GraphContext`` LRU answers the
  whole batch.  Read-mostly means exactly
  one forward and **no tape / State-Stack / Graph-Stack** — the executor's
  :meth:`~repro.core.executor.TemporalExecutor.begin_inference` path.
* **K-hop invalidation.**  The full-graph forward output is kept as a
  per-vertex row cache.  An update batch names its touched vertices; only
  rows within ``hops`` out-edge hops of a touched vertex change (see
  ``repro.graph.dirty``), so everything else keeps serving from cache with
  zero forwards — and stays *bitwise* equal to a fresh recompute at the new
  snapshot version.  One dirty set is kept per snapshot version.

Serving is strictly fresh: the dispatcher applies every queued update batch
before it serves a query, so every response reflects every update batch
enqueued before it (``wait=False`` included).  Every answer is equal to
*some* serial order of queries and update batches consistent with snapshot
versions (each result carries the version and timestamp it was served at);
``tests/test_serve_concurrency.py`` gates that property.  ``_cv`` is the
engine's one lock and a leaf: no code takes another lock while holding it
(``repro lint --concurrency``, STG201).

Every measured step is one record of the telemetry spine
(:mod:`repro.obs.spine`), so a request's latency is attributable live from
``/metrics``: ``repro_serve_request_seconds{kind,served_from}`` = queue wait
(``repro_serve_queue_wait_seconds``, behind any ``repro_serve_ingest_seconds``
ahead of it) + the forward when a row is dirty
(``repro_serve_forward_seconds``) + row read
(``repro_serve_row_read_seconds``).  See ``docs/SERVING.md``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.core.executor import TemporalExecutor
from repro.device import current_device, use_device
from repro.graph.base import DTDGGraph
from repro.graph.csr import BuiltSnapshot
from repro.graph.dirty import k_hop_neighborhood, touched_vertices
from repro.graph.dtdg import DTDG, EdgeUpdate
from repro.graph.gpma_graph import GPMAGraph
from repro.graph.snapshot_builder import patch_snapshot
from repro.obs.spine import emit, installed, span, use_installed
from repro.tensor.tensor import Tensor, no_grad

__all__ = ["InferenceEngine", "ServeResult", "ServingModel"]

#: Joining the dispatcher at shutdown; a single batch forward is orders of
#: magnitude faster, so expiry means a wedged worker (raised, not leaked).
_JOIN_TIMEOUT = 30.0

#: Dirty sets retained for diagnostics, keyed by snapshot version.
_DIRTY_HISTORY = 32

_KINDS = ("embedding", "prediction")


class ServingModel(Protocol):
    """Anything with the trainer's ``step`` protocol (e.g. the task models)."""

    def step(
        self, executor: TemporalExecutor, x: Tensor, state: Tensor | None
    ) -> tuple[Tensor, Tensor]: ...


@dataclass(frozen=True)
class ServeResult:
    """One answered point query.

    ``version``/``timestamp`` identify the snapshot the answer reflects;
    ``served_from`` is ``"cache"`` (row cache, zero forwards) or
    ``"forward"`` (this request's batch ran a compute).
    """

    vertex: int
    kind: str
    value: np.ndarray
    version: int
    timestamp: int
    served_from: str
    latency_s: float
    batch_size: int


class _Request:
    """Internal queue entry; completed fields are filled by the dispatcher."""

    __slots__ = (
        "vertex", "kind", "enqueued", "ready", "value", "version", "timestamp",
        "served_from", "batch_size",
    )

    def __init__(self, vertex: int, kind: str, enqueued: float) -> None:
        self.vertex = vertex
        self.kind = kind
        self.enqueued = enqueued  # perf_counter when the client queued it
        self.ready = False
        self.value: np.ndarray | None = None
        self.version = -1
        self.timestamp = -1
        self.served_from = ""
        self.batch_size = 0


#: A patch pays for each changed edge about what a full build pays for
#: 250 edges (binary searches and run copies against a decode, two counts
#: and a transpose), so a batch that changes more than one edge in this
#: many of the build's is built in full: there the patch is no cheaper.
_EDGES_PER_PATCHED_CHANGE = 256


class _LiveGraph(DTDGGraph):
    """The serving view of a DTDG, positioned at the newest timestamp from
    construction on, and the one graph that keeps a build: the last one it
    made, the arrays the engine's one-entry context store holds, so keeping
    it adds no byte.  :meth:`snapshot` patches that build when one small
    update separates it from the position (:func:`patch_snapshot`), and
    runs :meth:`~repro.graph.base.DTDGGraph.snapshot`'s full build at boot
    and whenever more than one update, or a large one, separates them.
    Driven by the dispatcher thread only."""

    graph_type = "live"

    def __init__(self, dtdg: DTDG, sort_by_degree: bool) -> None:
        super().__init__(dtdg, sort_by_degree)
        self._pos_time = dtdg.num_timestamps - 1
        self._build: BuiltSnapshot | None = None
        self._build_time = -1  # the timestamp ``_build`` is the snapshot of

    def _take_build(self) -> BuiltSnapshot:
        """Hand over the kept build, keeping no reference to it."""
        build, self._build = self._build, None
        assert build is not None
        return build

    def _patches(self, pending: list[EdgeUpdate]) -> bool:
        """Whether :meth:`snapshot` patches the kept build through the
        non-empty updates ``pending`` since it: there is one, or none, and
        it changes at most one edge in ``_EDGES_PER_PATCHED_CHANGE``."""
        build = self._build
        return (
            build is not None
            and len(pending) <= 1
            and all(u.num_changes * _EDGES_PER_PATCHED_CHANGE <= build.bwd.num_edges for u in pending)
        )

    def snapshot(self) -> BuiltSnapshot:
        """The current snapshot, one ``csr_cache_misses`` per call: the kept
        build, patched by the one non-empty update since it was made when
        that update is small against it, else a full build."""
        assert self._build_time <= self._pos_time  # serving only moves forward
        updates = (self.dtdg.updates[t] for t in range(self._build_time + 1, self._pos_time + 1))
        pending = [u for u in updates if u.num_changes]
        if self._patches(pending):
            for update in pending:  # one at most
                with span("graph.patch_snapshot", t=self._pos_time, changes=update.num_changes):
                    # The patch gets the only reference to the kept build,
                    # so it leaves the ledger before the patched arrays join.
                    self._build = patch_snapshot(
                        self._take_build(), update, self.num_nodes, self.sort_by_degree, current_device().alloc
                    )
            self._count("csr_cache_misses")
        else:
            self._build = None  # released before the full build allocates
            self._build = super().snapshot()
        self._build_time = self._pos_time
        build = self._build
        assert build is not None
        return build


class InferenceEngine:
    """Batched point-query inference over a live DTDG.

    Every served forward is the model's zero-state step (``state=None``):
    one GCN-style layer then reads only the current snapshot, which is what
    makes the k-hop rule exact.

    Parameters
    ----------
    model:
        Any :class:`ServingModel`; its parameters are read, never written.
    graph:
        A :class:`~repro.graph.gpma_graph.GPMAGraph`; the engine reads only
        its ``dtdg`` and ``sort_by_degree`` and never moves it, so that
        graph never makes its PMA (it makes it on the first read of its
        storage): serving holds no ``pma.*`` bytes.  Ingest
        batches are appended to that DTDG
        (:meth:`~repro.graph.dtdg.DTDG.append_update`), and
        :attr:`graph` is the engine's own view of it, at the newest
        snapshot from boot on.
    features:
        ``(N, F)`` serving feature matrix, fixed across versions (structure
        evolves; features are the input signal).  The engine keeps one
        float32 copy of it (the caller's array when it already is one)
        resident on the device for its lifetime, since every served forward
        reads it; training, where a step reads one timestamp's input, uploads
        each input only while its sequence reads it
        (:class:`~repro.train.utils.StepInputs`).
    hops:
        Receptive field of ``model`` in aggregation hops — the k of the
        k-hop invalidation rule.  One GCN-style layer (TGCN with a fresh
        state) is 1.
    batching:
        ``False`` ablates request coalescing *and* the row cache: every
        query dispatches its own forward (the naive per-query baseline).
    invalidation:
        ``False`` ablates the k-hop dirty sets: every applied batch
        invalidates all rows (per-version recompute, no cross-version
        reuse).
    """

    def __init__(
        self,
        model: ServingModel,
        graph: GPMAGraph,
        features: np.ndarray,
        *,
        hops: int = 1,
        batching: bool = True,
        invalidation: bool = True,
    ) -> None:
        if hops < 0:
            raise ValueError("hops must be >= 0")
        if features.shape[0] != graph.num_nodes:
            raise ValueError(
                f"features rows ({features.shape[0]}) != graph vertices "
                f"({graph.num_nodes})"
            )
        self.model = model
        self.graph = _LiveGraph(graph.dtdg, graph.sort_by_degree)
        self.hops = int(hops)
        self.batching = bool(batching)
        self.invalidation = bool(invalidation)
        self._device = current_device()
        self._telemetry = installed()  # tracer / flight recorder for the dispatcher
        # Serving only moves to newer versions and a no-op batch keeps its
        # version, so the live version's context is the one worth keeping.
        self._executor = TemporalExecutor(self.graph, ctx_cache_size=1)
        self._features = np.ascontiguousarray(features, dtype=np.float32)
        self._num_nodes = int(graph.num_nodes)

        # --- shared state, guarded by _cv -----------------------------
        self._cv = threading.Condition()
        self._pending: list[_Request] = []
        self._update_queue: list[tuple[int, EdgeUpdate]] = []
        self._ingest_seq = 0
        self._applied_seq = 0
        self._applied_version = int(self.graph.snapshot_version)
        self._stopping = False
        self._thread: threading.Thread | None = None
        self._worker_error: BaseException | None = None

        # --- dispatcher-private state (never written under _cv) -------
        self._h: np.ndarray | None = None
        self._pred: np.ndarray | None = None
        self._valid = np.zeros(self._num_nodes, dtype=bool)
        self._dirty_by_version: dict[int, np.ndarray] = {}
        self.forwards = 0
        self.batches_served = 0
        self.queries_served = 0
        self.row_cache_hits = 0
        self.rows_invalidated = 0
        self.updates_applied = 0
        self.max_batch_observed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceEngine":
        """Start the dispatcher thread (idempotent)."""
        thread: threading.Thread | None = None
        with self._cv:
            if self._worker_error is not None:
                raise RuntimeError("serving dispatcher died") from self._worker_error
            if self._thread is None:
                self._stopping = False
                thread = threading.Thread(
                    target=self._run, name="repro-serve-dispatch", daemon=True
                )
                self._thread = thread
        if thread is not None:
            thread.start()
        return self

    def stop(self) -> None:
        """Drain the queues, stop the dispatcher, and join it (idempotent)."""
        with self._cv:
            thread = self._thread
            self._stopping = True
            self._cv.notify_all()
        if thread is None:
            return
        thread.join(timeout=_JOIN_TIMEOUT)
        if thread.is_alive():  # pragma: no cover - defensive
            raise RuntimeError("serving dispatcher did not stop within timeout")
        with self._cv:
            self._thread = None

    def __enter__(self) -> "InferenceEngine":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """Whether the dispatcher thread is live."""
        with self._cv:
            return self._thread is not None and not self._stopping

    # ------------------------------------------------------------------
    # Client side: point queries
    # ------------------------------------------------------------------
    def query(
        self, vertex: int, kind: str = "embedding", timeout: float = 30.0
    ) -> ServeResult:
        """Blocking point query: ``kind`` of ``vertex`` at the latest time.

        Thread-safe; any number of client threads may call concurrently.
        The observed latency lands in
        ``repro_serve_request_seconds{kind,served_from}``.
        """
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        vertex = int(vertex)
        if not 0 <= vertex < self._num_nodes:
            raise ValueError(f"vertex {vertex} out of range [0, {self._num_nodes})")
        start = time.perf_counter()
        req = _Request(vertex, kind, enqueued=start)
        deadline = start + timeout
        with self._cv:
            self._raise_if_unserviceable_locked()
            self._pending.append(req)
            self._cv.notify_all()
            while not req.ready:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not self._cv.wait(timeout=remaining):
                    if req in self._pending:  # not dispatched: nobody will read it
                        self._pending.remove(req)
                    raise TimeoutError(
                        f"serve query for vertex {vertex} timed out after {timeout}s"
                    )
                if self._worker_error is not None:
                    raise RuntimeError(
                        "serving dispatcher died"
                    ) from self._worker_error
        latency = time.perf_counter() - start
        assert req.value is not None
        with use_device(self._device):  # client threads carry no device of their own
            emit("serve.query", seconds=latency, kind=kind, served_from=req.served_from)
        return ServeResult(
            vertex=vertex,
            kind=kind,
            value=req.value,
            version=req.version,
            timestamp=req.timestamp,
            served_from=req.served_from,
            latency_s=latency,
            batch_size=req.batch_size,
        )

    def _raise_if_unserviceable_locked(self) -> None:
        if self._worker_error is not None:
            raise RuntimeError("serving dispatcher died") from self._worker_error
        if self._thread is None or self._stopping:
            raise RuntimeError(
                "InferenceEngine is not running; call start() (or use it as "
                "a context manager)"
            )

    # ------------------------------------------------------------------
    # Ingest side
    # ------------------------------------------------------------------
    def enqueue_update(
        self, update: EdgeUpdate, *, wait: bool = True, timeout: float = 30.0
    ) -> int:
        """Queue one update batch; optionally block until it is applied.

        Thread-safe.  Returns the batch's ingest sequence number.  A
        malformed batch (see :meth:`~repro.graph.dtdg.DTDG.check_update`)
        raises ``ValueError`` here and is never queued.  With ``wait=False``
        the call returns at once, and the batch is still applied before any
        query enqueued after it is served; :meth:`flush` awaits application.
        """
        self.graph.dtdg.check_update(update)
        deadline = time.perf_counter() + timeout
        with self._cv:
            self._raise_if_unserviceable_locked()
            self._ingest_seq += 1
            seq = self._ingest_seq
            self._update_queue.append((seq, update))
            self._cv.notify_all()
            if wait:
                self._await_applied_locked(seq, deadline)
        return seq

    def flush(self, timeout: float = 30.0) -> None:
        """Block until every ingested update batch has been applied."""
        deadline = time.perf_counter() + timeout
        with self._cv:
            seq = self._ingest_seq
            self._await_applied_locked(seq, deadline)

    def _await_applied_locked(self, seq: int, deadline: float) -> None:
        while self._applied_seq < seq:
            if self._worker_error is not None:
                raise RuntimeError("serving dispatcher died") from self._worker_error
            if self._thread is None:
                raise RuntimeError("InferenceEngine is not running")
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not self._cv.wait(timeout=remaining):
                raise TimeoutError("update batch was not applied within timeout")

    @property
    def latest_version(self) -> int:
        """Snapshot version of the last applied update (or the boot version)."""
        with self._cv:
            return self._applied_version

    # ------------------------------------------------------------------
    # Dispatcher thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            with use_device(self._device), use_installed(self._telemetry):
                self._loop()
        except BaseException as exc:  # noqa: BLE001 - relayed to clients
            with self._cv:
                self._worker_error = exc
                self._stopping = True
                self._cv.notify_all()

    def _loop(self) -> None:
        while True:
            batch: list[_Request] = []
            updates: list[tuple[int, EdgeUpdate]] = []
            with self._cv:
                while not (self._pending or self._update_queue or self._stopping):
                    self._cv.wait(timeout=0.5)
                if self._stopping and not self._pending and not self._update_queue:
                    return
                # Every queued batch is applied before any query is served;
                # batches that land meanwhile go first on the next pass.
                if self._update_queue:
                    updates, self._update_queue = self._update_queue, []
                else:
                    take = len(self._pending) if self.batching else 1
                    batch = self._pending[:take]
                    del self._pending[:take]
            for seq, update in updates:
                self._apply_update(seq, update)
            if batch:
                self._serve_batch(batch)

    def _apply_update(self, seq: int, update: EdgeUpdate) -> None:
        """Append + position + invalidate for one ingested batch."""
        with span("serve.ingest", seq=seq):
            t_new = self.graph.dtdg.append_update(update)
            self.graph.get_graph(t_new)
            version = int(self.graph.snapshot_version)
            effective = self.graph.dtdg.updates[t_new]
            touched = touched_vertices(effective)
            if not self.invalidation:
                dirty = np.ones(self._num_nodes, dtype=bool)
            elif touched.size == 0:
                dirty = np.zeros(self._num_nodes, dtype=bool)
            else:
                # Out-edge expansion over the *new* snapshot.  Its context
                # replaces the superseded one in the executor's one-entry
                # store now, and the next forward reuses it.
                ctx = self._executor.begin_inference(t_new)
                dirty = k_hop_neighborhood(
                    ctx.bwd_row, ctx.bwd_col, touched, self.hops, self._num_nodes
                )
            self._valid &= ~dirty
            if touched.size:  # a redundant batch keeps the version and its dirty set
                self._dirty_by_version[version] = np.flatnonzero(dirty)
            while len(self._dirty_by_version) > _DIRTY_HISTORY:
                self._dirty_by_version.pop(next(iter(self._dirty_by_version)))
            self.rows_invalidated += int(dirty.sum())
            self.updates_applied += 1
        with self._cv:
            self._applied_seq = seq
            self._applied_version = version
            self._cv.notify_all()

    def _forward(self) -> None:
        """One batched no-grad forward at the latest applied snapshot.

        Every row is recomputed, so the previous output is dropped first:
        ``_serve_batch`` has already checked for hits, and nothing reads it
        while the forward runs.
        """
        self._h = self._pred = None
        with span("serve.forward", t=self.graph.curr_time), no_grad():
            self._executor.begin_inference(self.graph.curr_time)
            pred, h = self.model.step(self._executor, Tensor(self._features), None)
        self._h = h.data
        self._pred = pred.data
        self._valid[:] = True
        self.forwards += 1

    def _serve_batch(self, batch: list[_Request]) -> None:
        dispatched = time.perf_counter()
        for r in batch:
            emit("serve.queue_wait", seconds=dispatched - r.enqueued)
        hit_rows = 0
        if self.batching and self._h is not None:
            hit_rows = sum(1 for r in batch if self._valid[r.vertex])
        need_compute = (
            not self.batching
            or self._h is None
            or hit_rows < len(batch)
        )
        if need_compute:
            self._forward()
            served_from = "forward"
        else:
            served_from = "cache"
            self.row_cache_hits += hit_rows
        h, pred = self._h, self._pred
        assert h is not None and pred is not None
        version = int(self.graph.snapshot_version)
        timestamp = int(self.graph.curr_time)
        size = len(batch)
        emit("serve.batch", size=float(size))
        self.queries_served += size
        self.batches_served += 1
        self.max_batch_observed = max(self.max_batch_observed, size)
        with span("serve.row_read", rows=size):
            for r in batch:
                source = h if r.kind == "embedding" else pred
                r.value = np.array(source[r.vertex], copy=True)
                r.version = version
                r.timestamp = timestamp
                r.served_from = served_from
                r.batch_size = size
            with self._cv:
                for r in batch:
                    r.ready = True
                self._cv.notify_all()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def dirty_vertices(self, version: int) -> np.ndarray | None:
        """The dirty-vertex ids recorded for ``version`` (recent history
        only; dispatcher-private — read when the engine is quiescent)."""
        return self._dirty_by_version.get(int(version))

    def stats(self) -> dict[str, int | str]:
        """Serving counters plus the executor's cache/engine counters.

        Counter fields are written by the dispatcher thread; read them when
        the engine is stopped or traffic is quiescent.
        """
        out: dict[str, int | str] = {
            "forwards": self.forwards,
            "batches_served": self.batches_served,
            "queries_served": self.queries_served,
            "row_cache_hits": self.row_cache_hits,
            "rows_invalidated": self.rows_invalidated,
            "updates_applied": self.updates_applied,
            "max_batch_observed": self.max_batch_observed,
            "latest_version": self.latest_version,
            "batching": int(self.batching),
            "invalidation": int(self.invalidation),
        }
        for key, value in self._executor.stats().items():
            out[f"executor_{key}"] = value
        return out
