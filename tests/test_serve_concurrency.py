"""Property-style concurrent serving test (runs under ``REPRO_TSAN=1`` in CI).

Many client threads issue point queries while an updater lands GPMA update
batches on the same engine.  The property: every response must be
bitwise-equal to *some* serial order of queries and updates consistent
with snapshot versions — concretely, each response carries the timestamp
it was served at, and must equal a fresh serial forward at exactly that
timestamp.  No dispatcher thread may leak.

The engine's locks come from the sanitizer factories
(``repro.analysis.sanitizer``), so under ``REPRO_TSAN=1`` the session
additionally fails on any lock-discipline violation observed while this
interleaving runs (see ``tests/conftest.py``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.graph import DTDG, GPMAGraph
from repro.serve import (
    InferenceEngine,
    ServingHarness,
    random_update_batches,
    serial_reference,
)
from repro.train import STGraphNodeRegressor

N, F, HIDDEN = 64, 8, 12


def _serving_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-serve")]


@pytest.fixture
def setup(rng):
    src = rng.integers(0, N, 300)
    dst = rng.integers(0, N, 300)
    keep = src != dst
    dtdg = DTDG([(src[keep], dst[keep])], num_nodes=N)
    feats = rng.standard_normal((N, F)).astype(np.float32)
    model = STGraphNodeRegressor(F, HIDDEN)
    return dtdg, feats, model


# Two independent traffic draws: the seed picks the update batches and the
# client request streams, so each case runs a different interleaving.
@pytest.mark.parametrize("seed", [0, 2])
def test_concurrent_interleaving_matches_a_serial_order(setup, seed):
    dtdg, feats, model = setup
    updates = random_update_batches(dtdg, 6, seed=seed + 1)
    engine = InferenceEngine(model, GPMAGraph(dtdg), feats)
    with engine:
        harness = ServingHarness(
            engine,
            clients=8,
            requests_per_client=25,
            kinds=("embedding", "prediction"),
            updates=updates,
            seed=seed,
            collect=True,
        )
        report = harness.run(timeout=90.0)
    assert not _serving_threads(), "dispatcher thread leaked"

    assert report.requests == 8 * 25
    assert report.updates_applied == 6
    assert engine.latest_version == report.engine_stats["latest_version"]

    # Versions are monotone in timestamps: a response at a later timestamp
    # never reports an older version.
    by_ts = sorted({(r.timestamp, r.version) for r in report.results})
    versions = [v for _, v in by_ts]
    assert versions == sorted(versions)

    # Serial-order equivalence, bitwise: each response equals a fresh serial
    # query-after-every-update execution at the timestamp it was served at.
    ref = serial_reference(
        model, engine.graph.dtdg, feats, sorted({r.timestamp for r in report.results})
    )
    for res in report.results:
        h, pred = ref[res.timestamp]
        expect = (h if res.kind == "embedding" else pred)[res.vertex]
        assert np.array_equal(res.value, expect), (
            f"vertex {res.vertex} kind {res.kind} at t={res.timestamp} "
            f"(version {res.version}, served_from {res.served_from}) diverged "
            f"from the serial reference"
        )


def test_concurrent_ingest_is_serializable(setup):
    """Multiple ingest threads racing: all batches applied, versions settle."""
    dtdg, feats, model = setup
    engine = InferenceEngine(model, GPMAGraph(dtdg), feats)
    streams = [random_update_batches(dtdg, 3, seed=s) for s in (10, 20)]
    with engine:
        threads = [
            threading.Thread(
                target=lambda st=stream: [
                    engine.enqueue_update(u, wait=False) for u in st
                ],
                name=f"ingest-{i}",
            )
            for i, stream in enumerate(streams)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        engine.flush(timeout=60.0)
        stats = engine.stats()
        res = engine.query(0)
    assert stats["updates_applied"] == 6
    assert res.timestamp == engine.graph.dtdg.num_timestamps - 1
    assert not _serving_threads()


def test_queries_during_error_all_unblock(setup):
    """A dispatcher death mid-traffic releases every waiting client."""
    dtdg, feats, _ = setup

    class ExplodesLater:
        def __init__(self):
            self.calls = 0

        def step(self, executor, x, state):
            self.calls += 1
            raise RuntimeError("boom")

    engine = InferenceEngine(ExplodesLater(), GPMAGraph(dtdg), feats)
    errors = []
    lock = threading.Lock()

    def client():
        try:
            engine.query(0, timeout=30.0)
        except RuntimeError as exc:
            with lock:
                errors.append(str(exc))

    with engine:
        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    assert len(errors) == 4
    assert all("dispatcher died" in e for e in errors)
    assert not _serving_threads()
