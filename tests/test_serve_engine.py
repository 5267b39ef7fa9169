"""InferenceEngine unit tests: correctness, reuse, invalidation, ablations.

Everything here is single-client (deterministic interleavings); the
concurrent property test lives in ``test_serve_concurrency.py`` and the
end-to-end smoke in ``test_serve_harness.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import DTDG, GPMAGraph
from repro.serve import InferenceEngine, random_update_batches, serial_reference
from repro.train import STGraphNodeRegressor

N, F, HIDDEN = 48, 8, 12


@pytest.fixture
def dtdg(rng):
    src = rng.integers(0, N, 220)
    dst = rng.integers(0, N, 220)
    keep = src != dst
    return DTDG([(src[keep], dst[keep])], num_nodes=N)


@pytest.fixture
def feats(rng):
    return rng.standard_normal((N, F)).astype(np.float32)


@pytest.fixture
def model():
    return STGraphNodeRegressor(F, HIDDEN)


def _engine(model, dtdg, feats, **kw):
    return InferenceEngine(model, GPMAGraph(dtdg), feats, **kw)


class TestQueryCorrectness:
    def test_matches_serial_reference_bitwise(self, model, dtdg, feats):
        eng = _engine(model, dtdg, feats)
        with eng:
            emb = eng.query(3, "embedding")
            pred = eng.query(3, "prediction")
        ref = serial_reference(model, eng.graph.dtdg, feats, [emb.timestamp])
        h, p = ref[emb.timestamp]
        assert np.array_equal(emb.value, h[3])
        assert np.array_equal(pred.value, p[3])

    def test_result_metadata(self, model, dtdg, feats):
        eng = _engine(model, dtdg, feats)
        with eng:
            res = eng.query(0)
        assert res.kind == "embedding"
        assert res.timestamp == 0
        assert res.version == eng.graph.snapshot_version
        assert res.served_from == "forward"
        assert res.lag == 0
        assert res.latency_s > 0

    def test_query_validation(self, model, dtdg, feats):
        eng = _engine(model, dtdg, feats)
        with eng:
            with pytest.raises(ValueError, match="kind"):
                eng.query(0, "gradient")
            with pytest.raises(ValueError, match="out of range"):
                eng.query(N)
            with pytest.raises(ValueError, match="out of range"):
                eng.query(-1)

    def test_feature_shape_mismatch_raises(self, model, dtdg, rng):
        with pytest.raises(ValueError, match="features rows"):
            _engine(model, dtdg, rng.standard_normal((N + 1, F)).astype(np.float32))


class TestReuse:
    def test_same_version_queries_hit_all_caches(self, model, dtdg, feats, fresh_device):
        """Repeated queries at an unchanged version: one forward total, zero
        Algorithm-3 rebuilds, zero CSR/context cache misses after warmup."""
        eng = _engine(model, dtdg, feats)
        with eng:
            eng.query(0)  # warm: one forward, caches populated
            warm = fresh_device.totals.read()
            ctx_misses = eng._executor.ctx_cache_misses
            for v in range(20):
                res = eng.query(v % N)
                assert res.served_from == "cache"
            stats = eng.stats()
        assert stats["forwards"] == 1
        assert stats["row_cache_hits"] == 20
        after = fresh_device.totals.read()
        assert after.count("csr_cache_misses") == warm.count("csr_cache_misses")
        assert after.count("cache_fault_rebuilds") == warm.count("cache_fault_rebuilds")
        assert eng._executor.ctx_cache_misses == ctx_misses

    def test_stats_include_executor_counters(self, model, dtdg, feats):
        eng = _engine(model, dtdg, feats)
        with eng:
            eng.query(0)
            stats = eng.stats()
        assert "executor_ctx_cache_hits" in stats
        assert stats["queries_served"] == 1


class TestInvalidation:
    def test_clean_rows_survive_updates_bitwise(self, model, dtdg, feats):
        """After an update, rows outside the k-hop dirty set keep serving
        from the stale row cache — and are bitwise-equal to a fresh forward
        at the *new* version."""
        eng = _engine(model, dtdg, feats, hops=1)
        update = random_update_batches(dtdg, 1, seed=5)[0]
        with eng:
            eng.query(0)  # warm row cache at version 0
            eng.ingest.apply_update(update)
            version = eng.latest_version
            dirty = eng.dirty_vertices(version)
            assert dirty is not None and 0 < dirty.size < N
            clean = np.setdiff1d(np.arange(N), dirty)
            forwards_before = eng.forwards
            results = [eng.query(int(v)) for v in clean[:8]]
            assert eng.forwards == forwards_before  # pure cache serving
            dirty_res = eng.query(int(dirty[0]))
            assert dirty_res.served_from == "forward"
        ref = serial_reference(model, eng.graph.dtdg, feats, [results[0].timestamp])
        h = ref[results[0].timestamp][0]
        for res in results:
            assert res.served_from == "cache"
            assert res.version == version
            assert np.array_equal(res.value, h[res.vertex])
        assert np.array_equal(dirty_res.value, h[dirty_res.vertex])

    def test_redundant_batch_keeps_the_versions_dirty_set(self, model, dtdg, feats):
        """The same batch again changes nothing, so it keeps the version; the
        dirty set recorded for that version stays the first batch's 1-hop set."""
        eng = _engine(model, dtdg, feats, hops=1)
        update = random_update_batches(dtdg, 1, seed=5)[0]
        with eng:
            eng.ingest.apply_update(update)
            version = eng.latest_version
            dirty = eng.dirty_vertices(version).copy()
            assert 0 < dirty.size < N
            eng.ingest.apply_update(update)
            assert eng.latest_version == version
            assert np.array_equal(eng.dirty_vertices(version), dirty)
            assert eng.stats()["rows_invalidated"] == dirty.size

    def test_invalidation_off_recomputes_every_version(self, model, dtdg, feats):
        eng = _engine(model, dtdg, feats, invalidation=False)
        update = random_update_batches(dtdg, 1, seed=5)[0]
        with eng:
            eng.query(0)
            eng.ingest.apply_update(update)
            res = eng.query(0)
            stats = eng.stats()
        assert res.served_from == "forward"
        assert stats["rows_invalidated"] == N

    def test_noop_update_invalidates_nothing(self, model, dtdg, feats):
        eng = _engine(model, dtdg, feats)
        with eng:
            eng.query(0)
            eng.ingest.apply(None, None)
            # A no-op boundary inherits the snapshot version (GPMA skips it).
            assert eng.latest_version == 0
            res = eng.query(0)
            stats = eng.stats()
        assert res.served_from == "cache"
        assert stats["rows_invalidated"] == 0
        assert stats["updates_applied"] == 1


class TestBatchingAblation:
    def test_unbatched_is_one_forward_per_query(self, model, dtdg, feats):
        eng = _engine(model, dtdg, feats, batching=False)
        with eng:
            for v in range(5):
                res = eng.query(v)
                assert res.served_from == "forward"
            stats = eng.stats()
        assert stats["forwards"] == 5
        assert stats["row_cache_hits"] == 0


class TestFreshness:
    def test_strictly_fresh_reflects_every_prior_update(self, model, dtdg, feats):
        eng = _engine(model, dtdg, feats, freshness=0)
        updates = random_update_batches(dtdg, 3, seed=9)
        with eng:
            for i, update in enumerate(updates):
                eng.ingest.apply_update(update, wait=True)
                res = eng.query(1)
                assert res.timestamp == i + 1
                assert res.lag == 0
        ref = serial_reference(model, eng.graph.dtdg, feats, [3])
        assert eng.latest_version == 3
        with eng:
            assert np.array_equal(eng.query(1).value, ref[3][0][1])

    def test_flush_forces_full_application(self, model, dtdg, feats):
        eng = _engine(model, dtdg, feats, freshness=4)
        updates = random_update_batches(dtdg, 3, seed=9)
        with eng:
            for update in updates:
                eng.ingest.apply_update(update, wait=False)
            eng.flush()
            assert eng.pending_updates == 0
            assert eng.latest_version == 3
            res = eng.query(0)
            assert res.timestamp == 3

    def test_lag_never_exceeds_freshness(self, model, dtdg, feats):
        eng = _engine(model, dtdg, feats, freshness=2)
        updates = random_update_batches(dtdg, 6, seed=11)
        with eng:
            results = []
            for i, update in enumerate(updates):
                eng.ingest.apply_update(update, wait=False)
                results.append(eng.query(i % N))
            eng.flush()
        assert all(r.lag <= 2 for r in results)


class TestLifecycle:
    def test_query_before_start_raises(self, model, dtdg, feats):
        eng = _engine(model, dtdg, feats)
        with pytest.raises(RuntimeError, match="not running"):
            eng.query(0)

    def test_stop_is_idempotent_and_restartable(self, model, dtdg, feats):
        eng = _engine(model, dtdg, feats)
        eng.start()
        eng.stop()
        eng.stop()
        eng.start()
        try:
            assert eng.query(0).served_from in ("forward", "cache")
        finally:
            eng.stop()

    def test_worker_error_propagates_to_clients(self, dtdg, feats):
        class Exploding:
            def step(self, executor, x, state):
                raise RuntimeError("model detonated")

        eng = _engine(Exploding(), dtdg, feats)
        with pytest.raises(RuntimeError, match="dispatcher died"):
            with eng:
                eng.query(0)

    def test_constructor_validation(self, model, dtdg, feats):
        with pytest.raises(ValueError):
            _engine(model, dtdg, feats, hops=-1)
        with pytest.raises(ValueError):
            _engine(model, dtdg, feats, freshness=-1)
        with pytest.raises(ValueError):
            _engine(model, dtdg, feats, max_batch=0)
