"""Request-batched online inference over a live (evolving) GPMA graph.

The :class:`InferenceEngine` answers point queries — "the embedding (or
prediction) of vertex ``v`` at the latest time" — while update batches keep
landing on the same graph.  Three ideas make that cheap on top of the
training machinery:

* **Request coalescing.**  Point queries from concurrent clients are
  enqueued and served by one dispatcher thread that folds every pending
  request into a single batch: one ``no_grad()`` forward through the
  existing ProgramPlan cache, snapshot/CSR reuse caches, and keyed
  ``GraphContext`` LRU answers the whole batch.  Read-mostly means exactly
  one forward and **no tape / State-Stack / Graph-Stack** — the executor's
  :meth:`~repro.core.executor.TemporalExecutor.begin_inference` path.
* **K-hop invalidation.**  The full-graph forward output is kept as a
  per-vertex row cache.  An update batch names its touched vertices; only
  rows within ``hops`` out-edge hops of a touched vertex change (see
  ``repro.graph.dirty``), so everything else keeps serving from cache with
  zero forwards — and stays *bitwise* equal to a fresh recompute at the new
  snapshot version.  One dirty set is kept per snapshot version.
* **Bounded staleness.**  With ``freshness=k`` up to ``k`` ingested update
  batches may stay pending while queries are served at the current version;
  the ``k+1``-th forces a catch-up before the next batch is served.
  ``freshness=0`` is strictly fresh — every query reflects all updates
  ingested before it was dispatched.

Every answer is equal to *some* serial order of queries and update batches
consistent with snapshot versions (each result carries the version and
timestamp it was served at); ``tests/test_serve_concurrency.py`` gates
that property under the runtime lock sanitizer.

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
from collections import deque
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.analysis.sanitizer import new_condition
from repro.core.executor import TemporalExecutor
from repro.device import current_device, use_device
from repro.graph.dirty import k_hop_neighborhood, touched_vertices
from repro.graph.dtdg import EdgeUpdate
from repro.graph.gpma_graph import GPMAGraph
from repro.obs.spine import emit, installed, span, use_installed
from repro.serve.ingest import UpdateIngest
from repro.tensor.tensor import Tensor, no_grad

__all__ = ["InferenceEngine", "ServeResult", "ServingModel"]

#: Joining the dispatcher at shutdown; a single batch forward is orders of
#: magnitude faster, so expiry means a wedged worker (raised, not leaked).
_JOIN_TIMEOUT = 30.0

#: Dirty sets retained for diagnostics, keyed by snapshot version.
_DIRTY_HISTORY = 32

_PENDING_HELP = "Update batches ingested but not yet applied (staleness lag)."

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
    ``"forward"`` (this request's batch ran a compute); ``lag`` is how many
    ingested update batches were still pending when the batch was served
    (always ``<= freshness``).
    """

    vertex: int
    kind: str
    value: np.ndarray
    version: int
    timestamp: int
    served_from: str
    latency_s: float
    batch_size: int
    lag: int


class _Request:
    """Internal queue entry; completed fields are filled by the dispatcher."""

    __slots__ = (
        "vertex", "kind", "enqueued", "ready", "value", "version", "timestamp",
        "served_from", "batch_size", "lag",
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
        self.lag = 0


class InferenceEngine:
    """Batched point-query inference over a live GPMA graph.

    Parameters
    ----------
    model:
        Any :class:`ServingModel`; its parameters are read, never written.
    graph:
        A :class:`~repro.graph.gpma_graph.GPMAGraph`; the engine owns its
        position (callers must not move it concurrently) and appends ingest
        batches to its DTDG via :meth:`~repro.graph.dtdg.DTDG.append_update`.
    features:
        ``(N, F)`` serving feature matrix, fixed across versions (structure
        evolves; features are the input signal).
    hops:
        Receptive field of ``model`` in aggregation hops — the k of the
        k-hop invalidation rule.  One GCN-style layer (TGCN with a fresh
        state) is 1.
    freshness:
        Bounded staleness: max ingested-but-unapplied update batches while
        serving (0 = strictly fresh).
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
        freshness: int = 0,
        batching: bool = True,
        invalidation: bool = True,
        max_batch: int = 512,
        engine: str | None = None,
        state: np.ndarray | None = None,
    ) -> None:
        if hops < 0:
            raise ValueError("hops must be >= 0")
        if freshness < 0:
            raise ValueError("freshness must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if features.shape[0] != graph.num_nodes:
            raise ValueError(
                f"features rows ({features.shape[0]}) != graph vertices "
                f"({graph.num_nodes})"
            )
        self.model = model
        self.graph = graph
        self.hops = int(hops)
        self.freshness = int(freshness)
        self.batching = bool(batching)
        self.invalidation = bool(invalidation)
        self.max_batch = int(max_batch)
        self._device = current_device()
        self._telemetry = installed()  # tracer / flight recorder for the dispatcher
        self._executor = TemporalExecutor(graph, engine=engine)
        self._features = np.ascontiguousarray(features, dtype=np.float32)
        self._state = None if state is None else np.asarray(state, dtype=np.float32)
        self._num_nodes = int(graph.num_nodes)

        # --- shared state, guarded by _cv -----------------------------
        self._cv = new_condition(name="InferenceEngine._cv")
        self._pending: list[_Request] = []
        self._update_queue: deque[tuple[int, EdgeUpdate]] = deque()
        self._ingest_seq = 0
        self._applied_seq = 0
        self._applied_version = int(graph.snapshot_version)
        self._stopping = False
        self._thread: threading.Thread | None = None
        self._worker_error: BaseException | None = None

        # --- dispatcher-private state (never written under _cv) -------
        self._latest_t = int(graph.dtdg.num_timestamps) - 1
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

        # The one metric a site sets directly: a gauge is a level, not a record.
        self._pending_gauge = self._device.metrics.gauge(
            "repro_serve_pending_updates", _PENDING_HELP
        ).labels()

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
            lag=req.lag,
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
    # Ingest side (driven by UpdateIngest)
    # ------------------------------------------------------------------
    @property
    def ingest(self) -> UpdateIngest:
        """A client-facing :class:`~repro.serve.ingest.UpdateIngest` handle."""
        return UpdateIngest(self)

    def enqueue_update(
        self, update: EdgeUpdate, *, wait: bool = True, timeout: float = 30.0
    ) -> int:
        """Queue one update batch; optionally block until it is applied.

        Returns the batch's ingest sequence number.  With ``wait=False`` the
        batch is applied when the staleness bound forces it (or the queue
        goes idle); :meth:`flush` awaits full application.
        """
        deadline = time.perf_counter() + timeout
        with self._cv:
            self._raise_if_unserviceable_locked()
            self._ingest_seq += 1
            seq = self._ingest_seq
            self._update_queue.append((seq, update))
            self._pending_gauge.set(float(len(self._update_queue)))
            self._cv.notify_all()
            if wait:
                self._await_applied_locked(seq, deadline)  # lockcheck: ok(cv.wait on its own mutex, behind a helper)
        return seq

    def flush(self, timeout: float = 30.0) -> None:
        """Block until every ingested update batch has been applied."""
        deadline = time.perf_counter() + timeout
        with self._cv:
            seq = self._ingest_seq
            self._await_applied_locked(seq, deadline)  # lockcheck: ok(cv.wait on its own mutex, behind a helper)

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
    def pending_updates(self) -> int:
        """Ingested update batches not yet applied (the staleness lag)."""
        with self._cv:
            return len(self._update_queue)

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
            apply_now: list[tuple[int, EdgeUpdate]] = []
            lag = 0
            with self._cv:
                while not (self._pending or self._update_queue or self._stopping):
                    self._cv.wait(timeout=0.5)
                if self._stopping and not self._pending and not self._update_queue:
                    return
                # Catch up past the staleness bound before serving anything;
                # otherwise prefer queries (stale-but-bounded serving) and
                # apply updates opportunistically when no queries wait.
                while len(self._update_queue) > self.freshness:
                    apply_now.append(self._update_queue.popleft())
                if not apply_now:
                    if self._pending:
                        take = len(self._pending) if self.batching else 1
                        take = min(take, self.max_batch)
                        batch = self._pending[:take]
                        del self._pending[:take]
                        lag = len(self._update_queue)
                    elif self._update_queue:
                        apply_now.append(self._update_queue.popleft())
                if apply_now:
                    self._pending_gauge.set(float(len(self._update_queue)))
            for seq, update in apply_now:
                self._apply_update(seq, update)
            if batch:
                self._serve_batch(batch, lag)

    def _apply_update(self, seq: int, update: EdgeUpdate) -> None:
        """Append + position + invalidate for one ingested batch."""
        with span("serve.ingest", seq=seq):
            t_new = self.graph.dtdg.append_update(update)
            self.graph.get_graph(t_new)
            self._latest_t = t_new
            version = int(self.graph.snapshot_version)
            effective = self.graph.dtdg.updates[t_new]
            touched = touched_vertices(effective)
            if not self.invalidation:
                dirty = np.ones(self._num_nodes, dtype=bool)
            elif touched.size == 0:
                dirty = np.zeros(self._num_nodes, dtype=bool)
            else:
                # Out-edge expansion over the *new* snapshot; building the CSR
                # here also warms the snapshot cache for the next forward.
                bwd = self.graph.backward_csr()
                dirty = k_hop_neighborhood(
                    bwd.row_offset, bwd.col_indices, touched, self.hops, self._num_nodes
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
        """One batched no-grad forward at the latest applied snapshot."""
        with span("serve.forward", t=self._latest_t), no_grad():
            self._executor.begin_inference(self._latest_t)
            state = None if self._state is None else Tensor(self._state)
            pred, h = self.model.step(self._executor, Tensor(self._features), state)
        self._h = h.data
        self._pred = pred.data
        self._valid[:] = True
        self.forwards += 1

    def _serve_batch(self, batch: list[_Request], lag: int) -> None:
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
                r.lag = lag
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
            "pending_updates": self.pending_updates,
            "freshness": self.freshness,
            "batching": int(self.batching),
            "invalidation": int(self.invalidation),
        }
        for key, value in self._executor.stats().items():
            out[f"executor_{key}"] = value
        return out
