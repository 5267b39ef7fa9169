"""The three workloads: what each sets up, measures and verifies.

Everything here runs in a child process that ``run.py`` starts once per
pass.  A workload builds the program exactly as ``repro train`` and
``repro serve`` do, with constructor defaults (default engine, ``pipeline=0``,
``freshness=0``, batching and invalidation on), so the numbers are what
users get and survive the deletion of any engine or cache tier.

``run_pass`` is the one entry point: it returns a JSON-ready dict with the
timing samples, the counters read from the program's public ``stats()``
surfaces, the correctness verdicts and, for a traced pass, the per-site
totals from :mod:`probe`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import resource
import threading
import time
from typing import Any, Callable

import numpy as np

import probe
import traffic

__all__ = ["WORKLOADS", "Workload", "run_pass"]

#: Added to ``--seed`` for the dataset generators, so that seed 0 is the
#: dataset every document of this repository quotes.
_SX_MATHOVERFLOW_SEED = 204
_WIKIMATHS_SEED = 101

_CLIENT_THREAD = "bench-client-"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named set of inputs and how to run it."""

    name: str
    why: str
    #: what per-layer counts and times are divided by
    unit: str
    #: measured units per second of ``--seconds`` on the 2-core box the
    #: benchmark was defined on, so that a pass measures for about half of
    #: ``--seconds``.  Counts, not a deadline, size a pass: the inputs, the
    #: peak memory and every count then repeat exactly for a given seed.
    units_per_second: float
    min_units: int
    #: ``run(seed, units, scale, recorder, started)`` -> the pass result
    run: Callable[[int, int, float, "probe.SpanRecorder | None", float], dict[str, Any]]
    #: site prefixes that must record no call at all on this workload
    bypasses: tuple[str, ...] = ()

    def units(self, seconds: float) -> int:
        """Measured units of one pass (two passes make a run)."""
        return max(self.min_units, round(self.units_per_second * seconds / 2.0))


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------
def _peaks() -> dict[str, Any]:
    from repro.device import current_device

    tracker = current_device().tracker
    by_prefix: dict[str, int] = {}
    for tag, peak in tracker.peak_bytes_by_tag().items():
        prefix = tag.split(".")[0]
        prefix = "gpma" if prefix == "pma" else prefix  # the PMA arrays are the GPMA storage
        by_prefix[prefix] = by_prefix.get(prefix, 0) + int(peak)
    return {
        "peak_device_bytes": int(tracker.peak_bytes),
        # Linux reports ru_maxrss in KiB
        "peak_rss_bytes": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024,
        "peak_bytes_by_prefix": by_prefix,
    }


#: Executor counters that grow with the work done: reported as deltas over the window.
_EXECUTOR_WINDOWED = ("ctx_cache_hits", "ctx_cache_misses")
#: The serving engine's counters of the same kind.
_SERVE_WINDOWED = (
    "forwards", "batches_served", "queries_served", "row_cache_hits", "rows_invalidated", "updates_applied",
)


def _windowed_counters(graph: Any, stats: dict[str, Any], keys: tuple[str, ...]) -> dict[str, float]:
    """Counters read before and after the window, from the program's public stats surfaces."""
    cache = graph.cache_stats()
    return {
        "csr_cache_hits": cache["csr_cache_hits"],
        "csr_cache_misses": cache["csr_cache_misses"],
        "noop_updates_skipped": cache["noop_updates_skipped"],
        "update_batches_applied": getattr(graph, "update_batches_applied", 0),
        "cache_restores": getattr(graph, "cache_restores", 0),
        **{key: stats[key] for key in keys},
    }


def _whole_pass_counters(stats: dict[str, Any]) -> dict[str, float]:
    """Peaks and rare events, over set-up and measurement together."""
    from repro.compiler.plan import plan_cache

    return {
        "state_stack_peak_bytes": stats["state_stack_peak_bytes"],
        "engine_fallbacks": stats["engine_fallbacks"],
        "plan_cache_misses": int(plan_cache().stats()["misses"]),
    }


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def _site_rows(recorder: probe.SpanRecorder, start: float, end: float) -> dict[str, dict[str, dict[str, float]]]:
    """Per-site totals of spans opened in ``[start, end]``, program threads and client threads apart."""

    def rows(select: Callable[[str], bool]) -> dict[str, dict[str, float]]:
        return {site: dataclasses.asdict(t) for site, t in probe.summarize(recorder, start, end, select).items()}

    return {
        "program": rows(lambda name: not name.startswith(_CLIENT_THREAD)),
        "clients": rows(lambda name: name.startswith(_CLIENT_THREAD)),
    }


# ---------------------------------------------------------------------------
# Training workloads
# ---------------------------------------------------------------------------
def _edge_keys(src: np.ndarray, dst: np.ndarray, num_nodes: int) -> np.ndarray:
    return np.sort(np.asarray(src, dtype=np.int64) * np.int64(num_nodes) + np.asarray(dst, dtype=np.int64))


def _build_dtdg(seed: int, scale: float) -> tuple[Any, Any, Any, list[np.ndarray]]:
    from repro.dataset.dynamic_datasets import load_sx_mathoverflow
    from repro.tensor import init
    from repro.train.models import STGraphLinkPredictor
    from repro.train.tasks import make_link_prediction_samples
    from repro.train.trainer import STGraphTrainer

    ds = load_sx_mathoverflow(scale=scale, feature_size=16, max_snapshots=12, seed=_SX_MATHOVERFLOW_SEED + seed)
    samples = make_link_prediction_samples(ds.dtdg, seed=seed)
    init.set_seed(seed)
    trainer = STGraphTrainer(
        STGraphLinkPredictor(16, 16), ds.build_gpma(),
        sequence_length=4, task="link_prediction", link_samples=samples,
    )
    hashed = [ds.features[0]]
    for t in range(ds.num_timestamps):
        hashed.extend(ds.dtdg.snapshot_edges(t))
        hashed.extend((samples[t].pairs, samples[t].labels))
    return trainer, ds.features, None, hashed


def _build_static(seed: int, scale: float) -> tuple[Any, Any, Any, list[np.ndarray]]:
    from repro.dataset.static_datasets import load_wikimaths
    from repro.tensor import init
    from repro.train.models import STGraphNodeRegressor
    from repro.train.trainer import STGraphTrainer

    ds = load_wikimaths(lags=32, scale=scale, num_timestamps=60, seed=_WIKIMATHS_SEED + seed)
    init.set_seed(seed)
    trainer = STGraphTrainer(STGraphNodeRegressor(32, 32), ds.build_graph(), sequence_length=10)
    return trainer, ds.features, ds.targets, [ds.src, ds.dst, *ds.features, *ds.targets]


def _snapshot_mismatches(graph: Any) -> int:
    """Timestamps whose CSRs do not hold exactly ``DTDG.snapshot_edges(t)``."""
    bad = 0
    n = graph.num_nodes
    for t in range(graph.dtdg.num_timestamps):
        want = _edge_keys(*graph.dtdg.snapshot_edges(t), n)
        graph.get_graph(t)
        fwd, bwd = graph.forward_csr(), graph.backward_csr()
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(fwd.row_offset))
        got_fwd = _edge_keys(fwd.col_indices, rows, n)  # in-CSR: row is the destination
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(bwd.row_offset))
        got_bwd = _edge_keys(rows, bwd.col_indices, n)  # out-CSR: row is the source
        bad += not (np.array_equal(got_fwd, want) and np.array_equal(got_bwd, want))
    return bad


def _run_training(
    build: Callable[[int, float], tuple[Any, Any, Any, list[np.ndarray]]],
    seed: int, units: int, scale: float, recorder: probe.SpanRecorder | None, started: float,
) -> dict[str, Any]:
    trainer, features, targets, hashed = build(seed, scale)
    losses = [trainer.train_epoch(features, targets)]  # warm-up: plans compile, caches fill
    setup_s = time.perf_counter() - started

    graph, executor = trainer.graph, trainer.executor
    before = _windowed_counters(graph, executor.stats(), _EXECUTOR_WINDOWED)
    epoch_s: list[float] = []
    window_start = time.perf_counter()
    for _ in range(units):
        tick = time.perf_counter()
        losses.append(trainer.train_epoch(features, targets))
        epoch_s.append(time.perf_counter() - tick)
    window_end = time.perf_counter()
    peaks = _peaks()
    stats = executor.stats()
    counters = {**_delta(_windowed_counters(graph, stats, _EXECUTOR_WINDOWED), before), **_whole_pass_counters(stats)}

    checks = {
        "loss_finite": all(math.isfinite(x) for x in losses),
        "loss_decreased": losses[-1] < losses[0],
    }
    if hasattr(graph, "dtdg"):
        checks["snapshots_match_dtdg"] = _snapshot_mismatches(graph) == 0
    return {
        "setup_s": setup_s,
        "window": (window_start, window_end),
        "epoch_s": epoch_s,
        "timestamps": len(features),
        "losses": [float(x).hex() for x in losses],
        "ops_attempted": units,
        "ops_failed": sum(not math.isfinite(x) for x in losses[1:]),
        "checks": checks,
        "counters": counters,
        "input_sha256": traffic.input_sha256(hashed),
        **peaks,
    }


# ---------------------------------------------------------------------------
# Serving workload
# ---------------------------------------------------------------------------
_QUERIES_PER_UPDATE = 10
_CLIENTS = 2
#: a client waits this long for the others at the start of a round (a round takes ~0.1 s)
_ROUND_TIMEOUT_S = 60.0
_KINDS = ("embedding", "prediction")
#: serving versions checked against the serial oracle, besides the last
_ORACLE_VERSIONS = 16


def _run_serve(
    seed: int, units: int, scale: float, recorder: probe.SpanRecorder | None, started: float
) -> dict[str, Any]:
    from repro.dataset.dynamic_datasets import load_sx_mathoverflow
    from repro.graph.dtdg import EdgeUpdate
    from repro.serve.engine import InferenceEngine
    from repro.serve.harness import serial_reference
    from repro.tensor import init
    from repro.train.models import STGraphNodeRegressor

    ds = load_sx_mathoverflow(scale=scale, feature_size=16, max_snapshots=8, seed=_SX_MATHOVERFLOW_SEED + seed)
    init.set_seed(seed)
    model = STGraphNodeRegressor(16, 16)
    graph = ds.build_gpma()
    features = ds.features[0]
    engine = InferenceEngine(model, graph, features)

    def engine_stats() -> dict[str, Any]:
        # the engine reports its executor's counters under an ``executor_`` prefix
        return {key.removeprefix("executor_"): value for key, value in engine.stats().items()}

    engine.start()
    try:
        engine.query(seed % ds.num_nodes)  # first query: plan compile, first forward
        setup_s = time.perf_counter() - started

        # The benchmark's own traffic, made outside both timed regions.
        n = ds.num_nodes
        per_client = units * _QUERIES_PER_UPDATE
        last = ds.dtdg.num_timestamps - 1
        live_src, live_dst = ds.dtdg.snapshot_edges(last)
        batches = traffic.update_batches(seed, _edge_keys(live_src, live_dst, n), n, units)
        vertices = [traffic.query_vertices(seed, c, per_client, live_dst) for c in range(_CLIENTS)]
        # Read your write: the query client 0 sends right after an update asks
        # for a vertex that update touched.  It is certainly dirty, so every
        # update is followed by exactly one forward, and the peak memory and
        # the forward path's call counts do not depend on thread timing.
        vertices[0][::_QUERIES_PER_UPDATE] = [batch[0][0] for batch in batches]
        hashed = [features, *vertices]
        for t in range(ds.dtdg.num_timestamps):
            hashed.extend(ds.dtdg.snapshot_edges(t))
        for batch in batches:
            hashed.extend(batch)

        results: list[list[Any]] = [[] for _ in range(_CLIENTS)]
        update_s: list[float] = []
        failed = [0] * _CLIENTS
        rounds = threading.Barrier(_CLIENTS)

        def client(index: int) -> None:
            # Closed loop: the next request leaves when the last one returned.
            # A round is one update and the ten queries of each client, and
            # the clients start a round together, so that one query of client
            # 1 waits behind every update.  Those queries are the tail of the
            # latencies; without the barrier thread timing sets how many
            # there are, and query_p99_ms moves with their share.
            for j, vertex in enumerate(vertices[index]):
                if j % _QUERIES_PER_UPDATE == 0:
                    try:
                        rounds.wait(timeout=_ROUND_TIMEOUT_S)
                    except threading.BrokenBarrierError:  # the other client is gone
                        failed[index] += len(vertices[index]) - j
                        return
                    if index == 0:
                        tick = time.perf_counter()
                        try:
                            engine.enqueue_update(EdgeUpdate(*batches[j // _QUERIES_PER_UPDATE]), wait=True)
                            update_s.append(time.perf_counter() - tick)
                        except (RuntimeError, TimeoutError, ValueError):
                            failed[index] += 1
                try:
                    results[index].append(engine.query(int(vertex), _KINDS[j % 2]))
                except (RuntimeError, TimeoutError, ValueError):
                    failed[index] += 1

        before = _windowed_counters(graph, engine_stats(), _EXECUTOR_WINDOWED + _SERVE_WINDOWED)
        threads = [threading.Thread(target=client, args=(c,), name=f"{_CLIENT_THREAD}{c}") for c in range(_CLIENTS)]
        window_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window_end = time.perf_counter()
        engine.flush()
        peaks = _peaks()
        stats = engine_stats()
    finally:
        engine.stop()

    counters = {
        **_delta(_windowed_counters(graph, stats, _EXECUTOR_WINDOWED + _SERVE_WINDOWED), before),
        **_whole_pass_counters(stats),
    }

    # Oracle: a served value equals a fresh serial recompute at the snapshot it names.
    flat = [r for per in results for r in per]
    served_at = sorted({r.timestamp for r in flat})
    rng = np.random.default_rng([seed, 3])
    picked = set(rng.choice(served_at, size=min(_ORACLE_VERSIONS, len(served_at)), replace=False).tolist())
    picked.add(served_at[-1])
    reference = serial_reference(model, graph.dtdg, features, sorted(picked))
    wrong = sum(
        not np.array_equal(r.value, reference[r.timestamp][_KINDS.index(r.kind)][r.vertex])
        for r in flat if r.timestamp in picked
    )
    checked = sum(r.timestamp in picked for r in flat)

    out = {
        "setup_s": setup_s,
        "window": (window_start, window_end),
        "clients": _CLIENTS,
        "query_s": [r.latency_s for r in flat],
        "query_hit": [r.served_from == "cache" for r in flat],
        "update_s": update_s,
        "ops_attempted": _CLIENTS * per_client + units,
        "ops_failed": sum(failed) + wrong,
        "checks": {
            "all_updates_applied": counters["updates_applied"] == units,
            "oracle_bitwise": wrong == 0 and checked > 0,
        },
        "oracle_versions": len(picked),
        "oracle_results_checked": checked,
        "counters": counters,
        "input_sha256": traffic.input_sha256(hashed),
        **peaks,
    }
    if recorder:
        out["queue_wait_s"] = _queue_waits(recorder, results)
    return out


def _queue_waits(recorder: probe.SpanRecorder, results: list[list[Any]]) -> list[float]:
    """For each query a forward served: its latency minus that forward.

    The forward is the program-thread interval from ``core.begin_inference``
    opening to the next ``nn.model_step`` closing; the one that served a
    query is the last to finish inside the query's client-side span.
    """
    begins = [s for s in probe.site_spans(recorder, "core.begin_inference") if not s[0].startswith(_CLIENT_THREAD)]
    steps = [s for s in probe.site_spans(recorder, "nn.model_step") if not s[0].startswith(_CLIENT_THREAD)]
    forwards = [(b[1], s[2]) for b, s in zip(begins, steps)]
    ends = [f[1] for f in forwards]
    waits: list[float] = []
    for index, per in enumerate(results):
        spans = probe.site_spans(recorder, "serve.query", f"{_CLIENT_THREAD}{index}")
        for result, (_, start, end) in zip(per, spans):
            if result.served_from != "forward":
                continue
            at = int(np.searchsorted(ends, end, side="right")) - 1
            if at >= 0 and forwards[at][0] >= start:
                waits.append((end - start) - (forwards[at][1] - forwards[at][0]))
    return waits


# ---------------------------------------------------------------------------
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dtdg-update-bound",
            "sx-mathoverflow at scale 1.0 on GPMA, link prediction: graph update is most of an epoch, "
            "with thousands of keys per PMA batch, forward advance and LIFO rewind",
            unit="epoch", units_per_second=0.4, min_units=2, run=functools.partial(_run_training, _build_dtdg),
        ),
        Workload(
            "static-gnn-bound",
            "WikiMaths at scale 1.0 on a StaticGraph, node regression: no PMA call and one graph context, "
            "so all time is engine launches, tensor ops, autograd and the optimizer",
            unit="epoch", units_per_second=1.8, min_units=3, run=functools.partial(_run_training, _build_static),
            bypasses=("pma.",),
        ),
        Workload(
            "serve-churn",
            "2 closed-loop clients query a live sx-mathoverflow graph while 48-key update batches land: "
            "tiny PMA batches, append-only snapshots, no-grad forward per dirty read, k-hop invalidation",
            unit="update", units_per_second=12.0, min_units=20, run=_run_serve,
        ),
    )
}


def run_pass(
    name: str, seed: int, seconds: float, traced: bool, scale: float = 1.0, started: float | None = None
) -> dict[str, Any]:
    """Set up, measure and verify one pass of workload ``name`` in this process.

    ``started`` is when set-up began, for a caller that wants the
    interpreter's own start-up counted in ``setup_s``.
    """
    started = time.perf_counter() if started is None else started
    workload = WORKLOADS[name]
    # Import every layer first: the probe rebinds what is loaded.
    import repro.serve  # noqa: F401
    import repro.train  # noqa: F401

    recorder = probe.SpanRecorder() if traced else None
    with probe.installed(recorder) if recorder else contextlib.nullcontext([]) as missing:
        result = workload.run(seed, workload.units(seconds), scale, recorder, started)
    window_start, window_end = result.pop("window")
    result["wall_s"] = window_end - window_start
    if recorder:
        result["sites"] = _site_rows(recorder, window_start, window_end)
        result["setup_sites"] = _site_rows(recorder, started, window_start)
        if workload.bypasses:
            result["checks"]["bypassed_layers_idle"] = not any(
                row["calls"]
                for rows in (result["sites"], result["setup_sites"])
                for group in rows.values()
                for site, row in group.items() if site.startswith(workload.bypasses)
            )
    result.update(workload=name, seed=seed, traced=traced, unit=workload.unit, probe_missing_sites=list(missing))
    return result
