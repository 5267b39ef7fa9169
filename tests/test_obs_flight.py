"""Flight recorder: bounded rings, JSONL drains, and failure-edge wiring.

The recorder must capture the last-N-events window at every failure edge
(``abort_sequence``, engine fallback, simulated kill), write an append-mode
JSONL artifact whose windows are self-describing, stay bounded under event
pressure, and surface its accounting through the chaos report and the run
manifest.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.dataset import load_sx_mathoverflow
from repro.device import current_device
from repro.obs import (
    FlightRecorder,
    build_run_manifest,
    emit,
    installed,
    use_flight_recorder,
)
from repro.resilience import FaultPlan, FaultSite, run_chaos
from repro.tensor import init
from repro.train import (
    STGraphLinkPredictor,
    STGraphTrainer,
    make_link_prediction_samples,
)


@pytest.fixture(scope="module")
def dynamic_ds():
    return load_sx_mathoverflow(scale=0.01, feature_size=4, max_snapshots=6)


# ---------------------------------------------------------------------------
# Ring mechanics
# ---------------------------------------------------------------------------
def test_null_recorder_is_default_and_inert():
    """No recorder is installed by default: a flight site records into the
    totals only, and an installed recorder sees nothing from before."""
    assert installed() == (None, None)
    emit("core.abort_sequence", dropped_state=0, dropped_graph=0)  # flight + drain row
    rec = FlightRecorder()
    with use_flight_recorder(rec):
        assert installed() == (None, rec)
    assert installed() == (None, None)
    assert rec.events() == [] and rec.drain_count() == 0


def test_ring_is_bounded_per_thread():
    rec = FlightRecorder(capacity=8)
    for i in range(100):
        rec.record("mark", "tick", i=i)
    events = rec.events()
    assert len(events) == 8, "ring must drop old events, not grow"
    assert [e["i"] for e in events] == list(range(92, 100))
    assert rec.total_recorded == 100


def test_events_merge_across_threads_sorted():
    rec = FlightRecorder(capacity=16)
    rec.record("mark", "main-0")

    def worker():
        rec.record("mark", "worker-0")
        rec.record("mark", "worker-1")

    t = threading.Thread(target=worker)
    t.start()
    t.join()
    events = rec.events()
    assert {e["name"] for e in events} == {"main-0", "worker-0", "worker-1"}
    assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
    assert len({e["tid"] for e in events}) == 2


def test_drain_writes_appendable_jsonl(tmp_path):
    out = tmp_path / "flight.jsonl"
    rec = FlightRecorder(capacity=4, path=out)
    rec.record("mark", "a")
    rec.record("fault", "fault.kernel", t=3)
    assert rec.drain("abort_sequence") == 2
    rec.record("mark", "b")
    assert rec.drain("simulated_kill") == 3  # window still holds a + fault + b

    lines = [json.loads(ln) for ln in out.read_text().splitlines()]
    headers = [ln for ln in lines if "flight_drain" in ln]
    assert [h["flight_drain"] for h in headers] == ["abort_sequence", "simulated_kill"]
    assert headers[0]["events"] == 2 and headers[0]["capacity"] == 4
    # Header + its events, then the second window appended after.
    assert len(lines) == 1 + 2 + 1 + 3
    event_lines = [ln for ln in lines if "flight_drain" not in ln]
    assert all({"ts", "tid", "kind", "name"} <= set(ln) for ln in event_lines)
    assert rec.drain_count() == 2


def test_drain_without_path_is_accounted_not_written():
    rec = FlightRecorder(capacity=4)
    rec.record("mark", "a")
    assert rec.drain("engine_fallback") == 1
    assert rec.drain_count() == 1
    assert rec.drains[0]["path"] is None


# ---------------------------------------------------------------------------
# Failure-edge wiring
# ---------------------------------------------------------------------------
def test_abort_sequence_drains_recorder(dynamic_ds):
    samples = make_link_prediction_samples(dynamic_ds.dtdg, 32, seed=3)
    init.set_seed(3)
    model = STGraphLinkPredictor(4, 4)
    trainer = STGraphTrainer(
        model, dynamic_ds.build_gpma(), sequence_length=3,
        task="link_prediction", link_samples=samples,
    )
    rec = FlightRecorder(capacity=64)

    bad = list(dynamic_ds.features)
    bad[2] = None  # trips inside timestamp 2, after 0 and 1 recorded marks

    with use_flight_recorder(rec):
        with pytest.raises(Exception):
            trainer.train_epoch(bad)

    assert rec.drain_count() == 1
    assert rec.drains[0]["reason"] == "abort_sequence"
    names = [e["name"] for e in rec.events()]
    assert "train.timestamp" in names, "breadcrumbs should precede the abort"
    assert "core.abort_sequence" in names


def test_chaos_with_flight_recorder_captures_kill_window(tmp_path):
    out = tmp_path / "chaos-flight.jsonl"
    plan = FaultPlan(
        name="flight-kill",
        sites=[FaultSite(kind="kill", epoch=1, timestamp=1)],
    )
    report = run_chaos(plan, epochs=2, max_snapshots=4,
                       workdir=tmp_path, flight_recorder=out)
    assert report.ok
    assert report.kills == 1
    fr = report.flight_recorder
    assert fr is not None and fr["captured_fault_window"]
    assert fr["drains"] >= 1 and fr["events_recorded"] > 0

    lines = [json.loads(ln) for ln in out.read_text().splitlines()]
    headers = [ln for ln in lines if "flight_drain" in ln]
    assert any(h["flight_drain"] == "simulated_kill" for h in headers)
    fault_events = [ln for ln in lines
                    if "flight_drain" not in ln and ln["kind"] == "fault"]
    assert any(e["name"] == "fault.kill" for e in fault_events)
    assert "flight recorder" in report.render()


def test_manifest_records_flight_recorder_accounting(dynamic_ds):
    rec = FlightRecorder(capacity=32)
    with use_flight_recorder(rec):
        rec.record("mark", "one")
        rec.record("mark", "two")
        rec.drain("run_end")
        manifest = build_run_manifest(current_device(), run_name="flight-test")
    assert manifest.flight_recorder_events == 2
    assert manifest.flight_recorder_drains == 1

    # Without a recorder the fields stay zero.
    manifest = build_run_manifest(current_device())
    assert manifest.flight_recorder_events == 0
    assert manifest.flight_recorder_drains == 0
