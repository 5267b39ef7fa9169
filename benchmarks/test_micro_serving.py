"""Serving micro-benchmarks: coalescing vs per-query dispatch, cache reuse.

Two of these are *gating* (plain asserts, not just timings):

* request coalescing must beat unbatched per-query dispatch on p50 latency
  under >= 100 concurrent closed-loop clients;
* repeated same-version queries must be pure reuse — zero Algorithm-3
  snapshot rebuilds, zero CSR/context cache misses, zero extra forwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import DTDG, GPMAGraph
from repro.serve import InferenceEngine, ServingHarness, random_update_batches
from repro.train import STGraphNodeRegressor

N, F, HIDDEN = 256, 8, 16
CLIENTS = 100


@pytest.fixture
def setup(rng):
    src = rng.integers(0, N, 1500)
    dst = rng.integers(0, N, 1500)
    keep = src != dst
    dtdg = DTDG([(src[keep], dst[keep])], num_nodes=N)
    feats = rng.standard_normal((N, F)).astype(np.float32)
    return dtdg, feats


def _run(dtdg, feats, *, batching, invalidation=True, updates=(), clients=CLIENTS,
         requests=6):
    model = STGraphNodeRegressor(F, HIDDEN)
    engine = InferenceEngine(
        model, GPMAGraph(dtdg), feats,
        batching=batching, invalidation=invalidation,
    )
    with engine:
        report = ServingHarness(
            engine,
            clients=clients,
            requests_per_client=requests,
            updates=list(updates),
            seed=42,
            collect=False,
        ).run(timeout=300.0)
    return report


def test_batching_beats_unbatched_p50_at_100_clients(setup):
    """GATING: coalescing wins on p50 under >= 100 concurrent clients."""
    dtdg, feats = setup
    batched = _run(dtdg, feats, batching=True)
    unbatched = _run(dtdg, feats, batching=False)
    print(
        f"\n  batched:   p50 {batched.p50_ms:.3f} ms / p99 {batched.p99_ms:.3f} ms "
        f"({batched.qps:.0f} qps, {batched.engine_stats['forwards']} forwards)"
        f"\n  unbatched: p50 {unbatched.p50_ms:.3f} ms / p99 {unbatched.p99_ms:.3f} ms "
        f"({unbatched.qps:.0f} qps, {unbatched.engine_stats['forwards']} forwards)"
    )
    assert int(batched.engine_stats["max_batch_observed"]) > 1
    assert int(batched.engine_stats["forwards"]) < int(unbatched.engine_stats["forwards"])
    assert batched.p50_ms < unbatched.p50_ms, (
        f"coalescing lost on p50: batched {batched.p50_ms:.3f} ms "
        f"vs unbatched {unbatched.p50_ms:.3f} ms"
    )


def test_same_version_queries_are_pure_reuse(setup, fresh_device):
    """GATING: repeated queries at one version rebuild nothing (Algorithm 3
    never re-runs; CSR/context caches only hit)."""
    dtdg, feats = setup
    model = STGraphNodeRegressor(F, HIDDEN)
    engine = InferenceEngine(model, GPMAGraph(dtdg), feats)
    counters = lambda: fresh_device.totals.read().counters()  # noqa: E731
    with engine:
        engine.query(0)  # warm
        before = {
            **counters(),
            "ctx_cache_misses": engine._executor.ctx_cache_misses,
            "forwards": engine.forwards,
        }
        for v in range(200):
            engine.query(v % N)
        stats = engine.stats()
    assert counters()["csr_cache_misses"] == before["csr_cache_misses"]
    assert counters()["cache_fault_rebuilds"] == before["cache_fault_rebuilds"]
    assert engine._executor.ctx_cache_misses == before["ctx_cache_misses"]
    assert stats["forwards"] == before["forwards"]
    assert stats["row_cache_hits"] == 200


def test_invalidation_cuts_forwards_under_churn(setup):
    """K-hop dirty sets let clean rows keep serving across versions."""
    dtdg, feats = setup
    updates = random_update_batches(dtdg, 8, num_adds=4, num_deletes=2, seed=5)
    with_inval = _run(dtdg, feats, batching=True, invalidation=True,
                      updates=updates, clients=16, requests=24)
    without = _run(dtdg, feats, batching=True, invalidation=False,
                   updates=updates, clients=16, requests=24)
    print(
        f"\n  invalidation on:  {with_inval.engine_stats['forwards']} forwards, "
        f"{with_inval.engine_stats['row_cache_hits']} row hits"
        f"\n  invalidation off: {without.engine_stats['forwards']} forwards, "
        f"{without.engine_stats['row_cache_hits']} row hits"
    )
    assert int(with_inval.engine_stats["rows_invalidated"]) < 8 * N
    assert int(without.engine_stats["rows_invalidated"]) == 8 * N


def test_bench_serving_throughput(benchmark, setup):
    """Timed: steady-state cache-hit throughput for one client."""
    dtdg, feats = setup
    model = STGraphNodeRegressor(F, HIDDEN)
    engine = InferenceEngine(model, GPMAGraph(dtdg), feats)
    with engine:
        engine.query(0)  # warm

        def one_query():
            engine.query(17)

        benchmark(one_query)


def test_bench_update_ingest(benchmark, setup):
    """Timed: append + position + k-hop invalidate for one update batch."""
    dtdg, feats = setup
    model = STGraphNodeRegressor(F, HIDDEN)
    updates = iter(random_update_batches(dtdg, 120, num_adds=4, num_deletes=2, seed=9))
    engine = InferenceEngine(model, GPMAGraph(dtdg), feats)
    with engine:
        engine.query(0)

        def one_batch():
            engine.enqueue_update(next(updates), wait=True)

        # fixed rounds: the update stream is finite
        benchmark.pedantic(one_batch, rounds=100, iterations=1, warmup_rounds=5)
