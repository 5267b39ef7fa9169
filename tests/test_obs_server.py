"""Telemetry server: live scrape correctness and zero numeric interference.

The acceptance criteria for the live-telemetry PR: a ``GET /metrics``
against a *running* training job returns well-formed Prometheus text that
includes the ``repro_timestamp_seconds`` histogram labeled by engine with
``+Inf`` bucket == ``_count``; ``/healthz`` and ``/progress`` answer JSON;
the port is closed after shutdown; and training losses are bitwise
identical with telemetry on vs off.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.dataset import load_sx_mathoverflow
from repro.device import current_device, use_device
from repro.obs import TelemetryServer, TrainingProgress
from repro.tensor import init
from repro.train import (
    STGraphLinkPredictor,
    STGraphTrainer,
    make_link_prediction_samples,
)


@pytest.fixture(scope="module")
def dynamic_ds():
    return load_sx_mathoverflow(scale=0.01, feature_size=4, max_snapshots=6)


def _make_trainer(ds, seed: int = 7, telemetry_port: int | None = None) -> STGraphTrainer:
    samples = make_link_prediction_samples(ds.dtdg, 32, seed=seed)
    init.set_seed(seed)
    model = STGraphLinkPredictor(4, 4)
    return STGraphTrainer(
        model, ds.build_gpma(), sequence_length=3,
        task="link_prediction", link_samples=samples,
        telemetry_port=telemetry_port,
    )


def _get(url: str, timeout: float = 5.0) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode("utf-8")


# ---------------------------------------------------------------------------
# Server mechanics against the current device (no training needed)
# ---------------------------------------------------------------------------
def test_server_endpoints_and_clean_shutdown():
    server = TelemetryServer(current_device(), port=0)
    port = server.start()
    assert port and server.running
    try:
        status, text = _get(f"http://127.0.0.1:{port}/metrics")
        assert status == 200
        assert "# TYPE repro_phase_seconds_total counter" in text

        status, body = _get(f"http://127.0.0.1:{port}/healthz")
        health = json.loads(body)
        assert status == 200 and health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

        status, body = _get(f"http://127.0.0.1:{port}/progress")
        assert status == 200 and isinstance(json.loads(body), dict)

        with pytest.raises(urllib.error.HTTPError):
            _get(f"http://127.0.0.1:{port}/nope")
    finally:
        server.stop()
    assert not server.running
    # The port must actually be closed, not just the thread joined.
    with pytest.raises(OSError):
        sock = socket.create_connection(("127.0.0.1", port), timeout=0.5)
        sock.close()


def test_progress_updates_are_visible():
    progress = TrainingProgress()
    server = TelemetryServer(current_device(), port=0, progress=progress)
    port = server.start()
    try:
        progress.update(epoch=2, loss=0.125)
        _, body = _get(f"http://127.0.0.1:{port}/progress")
        snap = json.loads(body)
        assert snap["epoch"] == 2 and snap["loss"] == 0.125
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# Live scrape of a running training job
# ---------------------------------------------------------------------------
class _GatedFeatures:
    """Sequence wrapper that parks the training thread at one timestamp.

    When the trainer asks for ``features[gate_at]`` the wrapper signals
    ``reached`` and blocks on ``resume`` — by then every earlier timestamp
    has completed and been observed, so the main thread can scrape a
    guaranteed mid-run, non-empty ``/metrics`` without any polling race.
    """

    def __init__(self, features, gate_at: int,
                 reached: threading.Event, resume: threading.Event) -> None:
        self._features = features
        self._gate_at = gate_at
        self._reached = reached
        self._resume = resume
        self._fired = False

    def __len__(self) -> int:
        return len(self._features)

    def __getitem__(self, index: int):
        if index == self._gate_at and not self._fired:
            self._fired = True
            self._reached.set()
            assert self._resume.wait(60.0), "main thread never resumed training"
        return self._features[index]


def test_live_scrape_during_training(dynamic_ds):
    device = current_device()
    trainer = _make_trainer(dynamic_ds, telemetry_port=0)
    port = trainer.start_telemetry()
    assert port

    reached, resume, done = threading.Event(), threading.Event(), threading.Event()
    gated = _GatedFeatures(dynamic_ds.features, 2, reached, resume)
    errors: list[BaseException] = []

    def run() -> None:
        # ContextStack is thread-local: the worker must install the test
        # device itself before training.
        try:
            with use_device(device):
                trainer.train(gated, epochs=2)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            done.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        assert reached.wait(60.0), "training thread never reached the gate"
        # Timestamps 0 and 1 are complete and observed; the job is parked
        # mid-epoch — this scrape is mid-run by construction.
        _, text = _get(f"http://127.0.0.1:{port}/metrics")
        assert "repro_timestamp_seconds_bucket" in text
        assert 'engine="kernel"' in text
        # Well-formed histogram: +Inf bucket equals _count for every child.
        inf = {}
        counts = {}
        for line in text.splitlines():
            if line.startswith("repro_timestamp_seconds_bucket{") and 'le="+Inf"' in line:
                labels, value = line.rsplit(" ", 1)
                inf[labels.replace(',le="+Inf"', "").replace('le="+Inf"', "")] = int(value)
            elif line.startswith("repro_timestamp_seconds_count{"):
                labels, value = line.rsplit(" ", 1)
                counts[labels.replace("_count", "_bucket")] = int(value)
        assert inf and inf == counts
        _, body = _get(f"http://127.0.0.1:{port}/healthz")
        assert json.loads(body)["status"] == "ok"
    finally:
        resume.set()
        done.wait(60.0)
        thread.join(60.0)
    assert not errors, f"training thread failed: {errors}"
    # train()'s finally stopped the server and closed the port.
    assert trainer.telemetry_server is None
    with pytest.raises((OSError, urllib.error.URLError)):
        _get(f"http://127.0.0.1:{port}/healthz", timeout=0.5)


# ---------------------------------------------------------------------------
# Non-interference
# ---------------------------------------------------------------------------
def test_losses_bitwise_identical_with_and_without_telemetry(dynamic_ds):
    plain = _make_trainer(dynamic_ds).train(dynamic_ds.features, epochs=3)

    from repro.device import Device
    with use_device(Device(name="telemetry")):
        telemetered = _make_trainer(dynamic_ds, telemetry_port=0)
        with_server = telemetered.train(dynamic_ds.features, epochs=3)

    assert len(plain) == len(with_server)
    assert all(np.float64(a) == np.float64(b) for a, b in zip(plain, with_server))
