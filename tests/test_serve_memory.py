"""Serving keeps only what the next served forward reads.

* right after every served update and again after the forward that
  follows it, the tracked ``gpma.*`` bytes are exactly one snapshot build
  and the executor's context store holds one entry (the live version's):
  ingest swaps the store to the new version, so no superseded build
  outlives it;
* the ``GPMAGraph`` the engine is handed never makes its PMA: no ``pma.*``
  byte and no ``graph.preprocess`` span, from boot through every ingest and
  forward;
* an update's peak is no more than what stays resident after it: ingest
  evicts the superseded context before it builds the new one, and the
  executor's position does not hold the old one through the build;
* a served forward's peak stays under a bound from ``N``, ``F`` and ``E``
  that three superseded builds, or the previous output kept through the
  forward, would break;
* ingest builds no folded GCN weights: the forward after it does;
* the served values stay bitwise equal to the serial reference;
* the heap policy is applied once per process, and does nothing where
  ``mallopt`` does not resolve.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.device.heap as heap
from repro.device import Device, use_device
from repro.graph import DTDG, GPMAGraph
from repro.serve import InferenceEngine, random_update_batches, serial_reference
from repro.tensor import init
from repro.train import STGraphNodeRegressor

#: More vertices than edges per snapshot, as on sx-mathoverflow: the
#: forward's ``N×F`` arrays, not the build, set the serving peak.
N, EDGES, F, HIDDEN = 2000, 1500, 16, 16
UPDATES = 24
F32 = 4


def _build_bytes(num_nodes: int, num_edges: int) -> int:
    """Two CSRs (column arrays, row offsets, and the in-CSR's edge labels:
    the out-CSR's are its positions, stored as no array) and two degree
    arrays, int32."""
    return (3 * num_edges + 2 * (num_nodes + 1) + 2 * num_nodes) * F32


def _tag_bytes(device: Device, prefix: str) -> int:
    return sum(v for tag, v in device.tracker.bytes_by_tag().items() if tag.startswith(prefix))


def _served_run(after_ingest=None):
    """Serve ``UPDATES`` updates, each followed by a query of a vertex it
    touched; yield the engine, the device and the result after each served
    forward.  ``after_ingest(engine, device)`` runs between each
    ``enqueue_update`` and its query."""
    rng = np.random.default_rng(7)
    snaps = [(rng.integers(0, N, EDGES), rng.integers(0, N, EDGES)) for _ in range(3)]
    dtdg = DTDG(snaps, N)
    features = rng.standard_normal((N, F)).astype(np.float32)
    init.set_seed(3)
    model = STGraphNodeRegressor(F, HIDDEN)
    batches = random_update_batches(dtdg, UPDATES, num_adds=32, num_deletes=16, seed=5)
    device = Device()
    with use_device(device):
        engine = InferenceEngine(model, GPMAGraph(dtdg), features)
        with engine:
            engine.query(0)
            for batch in batches:
                engine.enqueue_update(batch)
                if after_ingest is not None:
                    after_ingest(engine, device)
                device.tracker.reset_peak()
                result = engine.query(int(batch.add_dst[0]), "prediction")
                assert result.served_from == "forward"
                yield engine, device, result


def _holds_one_build_and_one_context(engine, device):
    assert _tag_bytes(device, "gpma.") == _build_bytes(N, engine.graph.num_edges)
    assert len(engine._executor._ctx_cache) == 1


def test_serving_holds_one_build_and_one_context_after_every_update():
    ingests = []

    def after_ingest(engine, device):
        _holds_one_build_and_one_context(engine, device)
        ingests.append(engine.graph.snapshot_version)

    steps = 0
    for engine, device, _ in _served_run(after_ingest):
        _holds_one_build_and_one_context(engine, device)
        steps += 1
    assert steps == len(ingests) == UPDATES


def test_the_engine_never_makes_the_graphs_pma():
    """Checked after each ingest (before the peak is reset) and after each
    forward, so the per-tag peaks cover boot and the whole run."""
    def no_pma(engine, device):
        assert not [tag for tag in device.tracker.peak_bytes_by_tag() if tag.startswith("pma.")]
        assert device.totals.read().calls("graph.preprocess") == 0

    steps = 0
    for engine, device, _ in _served_run(no_pma):
        no_pma(engine, device)
        steps += 1
    assert steps == UPDATES


def test_ingest_builds_no_folded_weights():
    """Ingest positions the executor on the new version's context and
    launches nothing, so it builds no aggregation operator and no folded
    GCN weights; the served forward after it builds the ``"in"`` side once
    (a no-grad forward has no backward)."""
    after = []
    for engine, _device, _result in _served_run(lambda e, d: after.append(dict(_live_context(e)._operators))):
        ctx = _live_context(engine)
        assert set(ctx._operators) == {"in"} and ctx.operator("in")._scaled is not None
    assert len(after) == UPDATES and all(ops == {} for ops in after)


def _live_context(engine):
    (ctx,) = engine._executor._ctx_cache.values()
    return ctx


def test_an_update_never_holds_two_builds():
    """``reset_peak()`` before each of six ``enqueue_update`` calls: the peak
    during the ingest is at most the bytes resident once it is applied, so
    the superseded build is gone before the new one is made.  More edges
    than vertices here, so a build outweighs the ingest's other arrays."""
    n, edges = 400, 3000
    rng = np.random.default_rng(11)
    dtdg = DTDG([(rng.integers(0, n, edges), rng.integers(0, n, edges)) for _ in range(2)], n)
    features = rng.standard_normal((n, F)).astype(np.float32)
    init.set_seed(3)
    model = STGraphNodeRegressor(F, HIDDEN)
    device = Device()
    with use_device(device):
        engine = InferenceEngine(model, GPMAGraph(dtdg), features)
        with engine:
            engine.query(0)
            for batch in random_update_batches(dtdg, 6, num_adds=32, num_deletes=16, seed=2):
                misses = engine._executor.ctx_cache_misses
                device.tracker.reset_peak()
                engine.enqueue_update(batch)
                assert engine._executor.ctx_cache_misses == misses + 1  # the ingest built
                assert device.tracker.peak_bytes <= device.tracker.current_bytes
                assert _tag_bytes(device, "gpma.") == _build_bytes(n, engine.graph.num_edges)
                engine.query(int(batch.add_dst[0]))


def test_served_forward_peak_is_one_build_and_the_forward_working_set():
    """The bound: one build, the features and the forward's working set,
    three ``N×HIDDEN`` arrays (``a_z``, ``x @ W_h`` and one kernel output),
    with half an array to spare (the caller's graph holds no PMA).  Three
    superseded builds add ``3·build`` and a kept output ``N·(HIDDEN+1)``
    floats; either breaks it."""
    for engine, device, _ in _served_run():
        build = _build_bytes(N, engine.graph.num_edges)
        bound = build + N * F * F32 + 7 * N * HIDDEN * F32 // 2
        assert device.tracker.peak_bytes <= bound
        assert bound < device.tracker.peak_bytes + N * (HIDDEN + 1) * F32
        assert bound < device.tracker.peak_bytes + 3 * build


def test_served_values_equal_the_serial_reference():
    results = []
    for engine, _, result in _served_run():
        results.append(result)
    assert len(results) == UPDATES
    timestamps = sorted({r.timestamp for r in results})
    reference = serial_reference(engine.model, engine.graph.dtdg, engine._features, timestamps)
    for r in results:
        assert np.array_equal(r.value, reference[r.timestamp][1][r.vertex])


@pytest.fixture
def fresh_policy(monkeypatch):
    """A process in which the heap policy has not been applied yet."""
    monkeypatch.setattr(heap, "_applied", None)


def test_heap_policy_is_applied_once(fresh_policy, monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(heap, "_resolve_mallopt", lambda: mallopt)
    assert heap.set_heap_policy() is True
    assert heap.set_heap_policy() is True
    assert calls == [
        (heap.M_MMAP_THRESHOLD, heap.MMAP_THRESHOLD_BYTES),
        (heap.M_TRIM_THRESHOLD, heap.TRIM_THRESHOLD_BYTES),
    ]


def test_heap_policy_does_nothing_without_mallopt(fresh_policy, monkeypatch):
    """A C library without ``mallopt`` (macOS, musl builds without it)."""
    opened = []

    class NoMallopt:
        pass

    monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: opened.append(name) or NoMallopt())
    assert heap._resolve_mallopt() is None
    assert heap.set_heap_policy() is False
    assert heap.set_heap_policy() is False
    assert opened == [None, None]
