"""End-to-end serving smoke (the CI ``serving-smoke`` gate).

~1k point queries from concurrent closed-loop clients interleaved with
GPMA update batches, checked three ways:

1. **Bitwise serial equivalence** — every response equals the serial
   query-after-every-update reference at the timestamp it reports.
2. **Zero thread leak** — no ``repro-serve*`` thread survives the run.
3. **Live observability** — a real HTTP scrape of ``/metrics`` during the
   run exposes ``repro_serve_request_seconds`` with the Prometheus
   histogram invariant ``bucket{le="+Inf"} == _count``.
"""

from __future__ import annotations

import re
import threading
import urllib.request

import numpy as np
import pytest

from repro.graph import DTDG, GPMAGraph
from repro.obs.server import TelemetryServer
from repro.serve import (
    InferenceEngine,
    ServingHarness,
    random_update_batches,
    serial_reference,
)
from repro.train import STGraphNodeRegressor

N, F, HIDDEN = 96, 8, 16
CLIENTS, REQUESTS = 16, 64  # 1024 queries
UPDATES = 10


@pytest.fixture
def setup(rng):
    src = rng.integers(0, N, 500)
    dst = rng.integers(0, N, 500)
    keep = src != dst
    dtdg = DTDG([(src[keep], dst[keep])], num_nodes=N)
    feats = rng.standard_normal((N, F)).astype(np.float32)
    model = STGraphNodeRegressor(F, HIDDEN)
    return dtdg, feats, model


def _scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10.0) as resp:
        return resp.read().decode()


def test_serving_smoke_1k_queries(setup, fresh_device):
    dtdg, feats, model = setup
    updates = random_update_batches(dtdg, UPDATES, num_adds=10, num_deletes=5, seed=3)
    engine = InferenceEngine(model, GPMAGraph(dtdg), feats)
    server = TelemetryServer(fresh_device)
    port = server.start()
    try:
        with engine:
            harness = ServingHarness(
                engine,
                clients=CLIENTS,
                requests_per_client=REQUESTS,
                kinds=("embedding", "prediction"),
                updates=updates,
                seed=7,
                collect=True,
            )
            report = harness.run(timeout=120.0)
            text = _scrape(f"http://127.0.0.1:{port}/metrics")
    finally:
        server.stop()

    # 1. full traffic, all updates landed
    assert report.requests == CLIENTS * REQUESTS
    assert report.updates_applied == UPDATES
    stats = report.engine_stats
    assert stats["queries_served"] == CLIENTS * REQUESTS
    # coalescing really happened under 16 concurrent clients
    assert int(stats["max_batch_observed"]) > 1
    assert int(stats["forwards"]) < CLIENTS * REQUESTS

    # 2. zero thread leak
    leaked = [t.name for t in threading.enumerate() if t.name.startswith("repro-serve")]
    assert not leaked, leaked

    # 3. live scrape exposes the serving histogram with +Inf == _count
    assert "repro_serve_request_seconds" in text
    counts = {
        m.group(1): int(m.group(2))
        for m in re.finditer(
            r'repro_serve_request_seconds_count\{([^}]*)\} (\d+)', text
        )
    }
    infs = {
        m.group(1): int(m.group(2))
        for m in re.finditer(
            r'repro_serve_request_seconds_bucket\{([^}]*?),?le="\+Inf"[^}]*\} (\d+)',
            text,
        )
    }
    assert counts, "no repro_serve_request_seconds samples in /metrics"
    total = sum(counts.values())
    assert total == CLIENTS * REQUESTS
    for labels, count in counts.items():
        inf_key = next((k for k in infs if set(labels.split(",")) <= set(k.split(","))), None)
        assert inf_key is not None, f"no +Inf bucket for {{{labels}}}"
        assert infs[inf_key] == count, f"+Inf != _count for {{{labels}}}"
    assert "repro_serve_batch_size" in text

    # 4. bitwise serial equivalence at every served timestamp
    ref = serial_reference(
        model, engine.graph.dtdg, feats, sorted({r.timestamp for r in report.results})
    )
    mismatches = 0
    for res in report.results:
        h, pred = ref[res.timestamp]
        expect = (h if res.kind == "embedding" else pred)[res.vertex]
        if not np.array_equal(res.value, expect):
            mismatches += 1
    assert mismatches == 0, f"{mismatches}/{report.requests} responses diverged"


def test_report_row_shape(setup):
    dtdg, feats, model = setup
    engine = InferenceEngine(model, GPMAGraph(dtdg), feats)
    with engine:
        report = ServingHarness(
            engine, clients=2, requests_per_client=4, collect=False
        ).run(timeout=60.0)
    row = report.row()
    assert set(row) == {
        "requests", "qps", "p50_ms", "p99_ms", "forwards", "row_cache_hits", "updates",
    }
    assert row["requests"] == 8
    assert report.results == []  # collect=False keeps the report lean
    assert report.p50_ms <= report.p99_ms <= report.max_ms


def test_serve_cli_smoke(tmp_path, capsys):
    """``repro serve --verify`` end to end, including the JSON report."""
    import json

    from repro.cli import main

    out = tmp_path / "serve.json"
    rc = main([
        "serve", "--clients", "4", "--requests", "8", "--updates", "3",
        "--timestamps", "4", "--scale", "0.02", "--verify",
        "--json", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "bitwise-equal" in printed
    payload = json.loads(out.read_text())
    assert payload["mismatches"] == 0
    assert payload["report"]["requests"] == 32
    assert payload["config"]["invalidation"] is True
