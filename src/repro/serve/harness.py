"""Concurrent client simulator and serial reference for the serving layer.

:class:`ServingHarness` drives thread-per-client closed-loop traffic
against an :class:`~repro.serve.engine.InferenceEngine` — each client
issues its next query as soon as the previous answer returns (optionally
paced to a target per-client QPS) while an updater thread lands update
batches through :class:`~repro.serve.ingest.UpdateIngest`.  The run
produces a :class:`ServingReport` with client-observed p50/p99 latency and
throughput, the engine's reuse counters, and (optionally) every
:class:`~repro.serve.engine.ServeResult` for correctness checks.

:func:`serial_reference` recomputes, for every snapshot the run realized,
the exact full-graph outputs a query-after-every-update serial execution
would have produced — the oracle the serving CI smoke compares against
bitwise (each served result must equal the reference at the version it
reports).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.core.executor import TemporalExecutor
from repro.graph.dtdg import DTDG, EdgeUpdate
from repro.graph.gpma_graph import GPMAGraph
from repro.serve.engine import InferenceEngine, ServeResult, ServingModel
from repro.tensor.tensor import Tensor, no_grad

__all__ = ["ServingHarness", "ServingReport", "serial_reference"]


@dataclass
class ServingReport:
    """Aggregate outcome of one harness run."""

    requests: int
    duration_s: float
    qps: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    updates_applied: int
    engine_stats: dict[str, int | str]
    results: list[ServeResult] = field(default_factory=list, repr=False)

    def row(self) -> dict[str, Any]:
        """Flat dict for benchmark tables / JSON payloads."""
        stats = self.engine_stats
        return {
            "requests": self.requests,
            "qps": round(self.qps, 1),
            "p50_ms": round(self.p50_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "forwards": int(stats.get("forwards", 0)),
            "row_cache_hits": int(stats.get("row_cache_hits", 0)),
            "updates": self.updates_applied,
        }


class ServingHarness:
    """Thread-driven closed-loop clients at a configurable query/update mix.

    Parameters
    ----------
    engine:
        A started (or about-to-be-started) :class:`InferenceEngine`; the
        harness does not start or stop it.
    clients / requests_per_client:
        Closed-loop query clients and how many point queries each issues.
    kinds:
        Query kinds cycled through per client (seeded per-client RNG picks
        vertices; kinds are chosen round-robin for determinism).
    updates:
        Update batches the updater thread applies, in order, interleaved
        with query traffic.  ``update_wait`` selects blocking application
        (strictly serializing each batch) vs fire-and-forget up to the
        engine's freshness bound.
    qps:
        Optional per-client pacing (closed-loop with sleep); ``None`` runs
        at maximum rate.
    collect:
        Keep every :class:`ServeResult` on the report (needed by the
        bitwise serial-equivalence checks; turn off for pure timing runs).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        *,
        clients: int = 8,
        requests_per_client: int = 32,
        kinds: Sequence[str] = ("embedding",),
        updates: Sequence[EdgeUpdate] = (),
        update_wait: bool = True,
        update_interval_s: float = 0.0,
        qps: float | None = None,
        seed: int = 0,
        collect: bool = True,
    ) -> None:
        if clients < 1 or requests_per_client < 1:
            raise ValueError("clients and requests_per_client must be >= 1")
        self.engine = engine
        self.clients = int(clients)
        self.requests_per_client = int(requests_per_client)
        self.kinds = tuple(kinds)
        self.updates = list(updates)
        self.update_wait = bool(update_wait)
        self.update_interval_s = float(update_interval_s)
        self.qps = qps
        self.seed = int(seed)
        self.collect = bool(collect)

    # ------------------------------------------------------------------
    def run(self, timeout: float = 120.0) -> ServingReport:
        """Run the full traffic mix; returns the aggregated report."""
        num_nodes = self.engine.graph.num_nodes
        latencies: list[list[float]] = [[] for _ in range(self.clients)]
        collected: list[list[ServeResult]] = [[] for _ in range(self.clients)]
        errors: list[BaseException] = []
        errors_lock = threading.Lock()
        pace = None if self.qps is None else 1.0 / float(self.qps)

        def client(idx: int) -> None:
            rng = np.random.default_rng(self.seed + 1000 * (idx + 1))
            try:
                for i in range(self.requests_per_client):
                    vertex = int(rng.integers(0, num_nodes))
                    kind = self.kinds[i % len(self.kinds)]
                    res = self.engine.query(vertex, kind, timeout=timeout)
                    latencies[idx].append(res.latency_s)
                    if self.collect:
                        collected[idx].append(res)
                    if pace is not None:
                        time.sleep(pace)
            except BaseException as exc:  # noqa: BLE001 - reported after join
                with errors_lock:
                    errors.append(exc)

        def updater() -> None:
            try:
                ingest = self.engine.ingest
                for update in self.updates:
                    ingest.apply_update(
                        update, wait=self.update_wait, timeout=timeout
                    )
                    if self.update_interval_s:
                        time.sleep(self.update_interval_s)
            except BaseException as exc:  # noqa: BLE001 - reported after join
                with errors_lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,), name=f"serve-client-{i}")
            for i in range(self.clients)
        ]
        if self.updates:
            threads.append(threading.Thread(target=updater, name="serve-updater"))
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
        duration = time.perf_counter() - start
        alive = [t.name for t in threads if t.is_alive()]
        if alive:
            raise RuntimeError(f"harness threads did not finish: {alive}")
        if errors:
            raise errors[0]
        self.engine.flush(timeout=timeout)

        flat = np.array([v for per in latencies for v in per], dtype=np.float64)
        results = [r for per in collected for r in per]
        stats = self.engine.stats()
        return ServingReport(
            requests=len(flat),
            duration_s=duration,
            qps=len(flat) / duration if duration > 0 else 0.0,
            p50_ms=float(np.percentile(flat, 50)) * 1e3 if len(flat) else 0.0,
            p99_ms=float(np.percentile(flat, 99)) * 1e3 if len(flat) else 0.0,
            mean_ms=float(flat.mean()) * 1e3 if len(flat) else 0.0,
            max_ms=float(flat.max()) * 1e3 if len(flat) else 0.0,
            updates_applied=int(stats.get("updates_applied", 0)),
            engine_stats=stats,
            results=results,
        )


def serial_reference(
    model: ServingModel,
    dtdg: DTDG,
    features: np.ndarray,
    timestamps: Sequence[int],
    *,
    state: np.ndarray | None = None,
    engine: str | None = None,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Fresh ``(embedding, prediction)`` outputs per timestamp, serially.

    The query-after-every-update oracle: a fresh graph and executor walk
    ``timestamps`` in order, computing one no-grad forward each — exactly
    what a serial client would see after each update batch.  Because the
    engine's DTDG accumulates ingested batches as appended snapshots, run
    this *after* a serving run over ``engine.graph.dtdg`` and compare each
    :class:`ServeResult` against ``reference[result.timestamp]`` bitwise.
    """
    graph = GPMAGraph(dtdg)
    executor = TemporalExecutor(graph, engine=engine)
    x = np.ascontiguousarray(features, dtype=np.float32)
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for t in timestamps:
        with no_grad():
            executor.begin_inference(int(t))
            st = None if state is None else Tensor(np.asarray(state, dtype=np.float32))
            pred, h = model.step(executor, Tensor(x), st)
        out[int(t)] = (h.data.copy(), pred.data.copy())
    return out
