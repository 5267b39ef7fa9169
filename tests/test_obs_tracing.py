"""Tracing subsystem: span semantics, exporters, manifests, non-interference.

Covers the observability acceptance criteria: matched B/E pairs in the
Chrome export, spans closed even when a timestep raises mid-sequence,
bitwise-identical training losses with the tracer disabled, and the
Figure 9 table rendered from the one attribution there is (the device
totals' self time per category).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.dataset import load_sx_mathoverflow
from repro.device import current_device
from repro.obs import (
    RunManifest,
    Totals,
    Tracer,
    build_run_manifest,
    chrome_trace,
    emit,
    installed,
    open_span_count,
    prometheus_text,
    span,
    use_tracer,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.tensor import init
from repro.train import (
    STGraphLinkPredictor,
    STGraphTrainer,
    make_link_prediction_samples,
)


@pytest.fixture(scope="module")
def dynamic_ds():
    return load_sx_mathoverflow(scale=0.01, feature_size=4, max_snapshots=6)


def _make_trainer(ds, seed: int = 7) -> tuple[STGraphTrainer, list]:
    samples = make_link_prediction_samples(ds.dtdg, 32, seed=seed)
    init.set_seed(seed)
    model = STGraphLinkPredictor(4, 4)
    trainer = STGraphTrainer(
        model, ds.build_gpma(), sequence_length=3,
        task="link_prediction", link_samples=samples,
    )
    return trainer, samples


# ---------------------------------------------------------------------------
# Core span semantics
# ---------------------------------------------------------------------------
def test_null_tracer_is_default_and_inert():
    """No tracer is installed by default, and records still flow (totals)."""
    assert installed() == (None, None)
    with span("train.sequence", start=0, stop=3):
        emit("core.ctx_cache_hit")
    assert open_span_count() == 0
    assert current_device().totals.read().calls("train.sequence") == 1


def test_use_tracer_nests_and_restores():
    t1, t2 = Tracer(name="one"), Tracer(name="two")
    with use_tracer(t1):
        assert installed()[0] is t1
        with use_tracer(t2):
            assert installed()[0] is t2
        with use_tracer(None):  # None keeps tracing disabled
            assert installed()[0] is None
        assert installed()[0] is t1
    assert installed()[0] is None


def test_self_time_aggregation_no_double_count():
    tr = Tracer()
    # Two sites of one category (gnn), nested.
    with use_tracer(tr):
        with span("core.interpret"):
            time.sleep(0.02)
            with span("device.kernel_launch", tier="python"):
                time.sleep(0.02)
    totals = current_device().totals.read()
    # Self time per cat: outer's self excludes inner, so the "gnn" total
    # equals outer's inclusive duration (both spans share the category).
    outer_calls, outer_seconds = totals.site_totals["core.interpret"]
    inner_calls, inner_seconds = totals.site_totals["device.kernel_launch"]
    assert totals.seconds("gnn") == pytest.approx(outer_seconds, rel=0.2)
    assert outer_calls == 1 and inner_calls == 1
    assert inner_seconds < outer_seconds
    # Event depths are recorded.
    events = {e.name: e for e in tr.span_events()}
    assert events["device.kernel_launch"].depth == 1
    assert events["core.interpret"].depth == 0


def test_span_captures_memory_and_counter_deltas():
    device = current_device()
    tr = Tracer()
    with use_tracer(tr):
        with span("train.sequence"):
            keep = device.alloc.zeros(1024, dtype=np.float32, tag="obs-test")
            emit("graph.csr_cache_hits", 3)
    (event,) = tr.span_events()
    assert event.args["mem_delta_bytes"] == 4096
    assert event.args["d_csr_cache_hits"] == 3
    assert event.args["mem_bytes"] >= 4096
    del keep


def test_span_closed_and_tagged_on_exception():
    tr = Tracer()
    with use_tracer(tr), pytest.raises(ValueError):
        with span("train.sequence"):
            raise ValueError("boom")
    assert open_span_count() == 0
    (event,) = tr.span_events()
    assert event.args["error"] == "ValueError"


def test_max_events_cap_keeps_aggregates():
    tr = Tracer(max_events=2)
    with use_tracer(tr):
        for i in range(5):
            with span("train.sequence", start=i):
                pass
    assert len(tr.events) == 2
    assert tr.dropped_events == 3
    assert current_device().totals.read().calls("train.sequence") == 5


# ---------------------------------------------------------------------------
# Failure injection: no dangling spans when a timestep raises mid-sequence
# ---------------------------------------------------------------------------
class _FailingTrainer(STGraphTrainer):
    def _loss_at(self, t, pred, targets):
        if t == 1:
            raise RuntimeError("injected mid-sequence failure")
        return super()._loss_at(t, pred, targets)


def test_tracing_survives_mid_sequence_failure(dynamic_ds):
    samples = make_link_prediction_samples(dynamic_ds.dtdg, 32, seed=3)
    init.set_seed(3)
    model = STGraphLinkPredictor(4, 4)
    trainer = _FailingTrainer(
        model, dynamic_ds.build_gpma(), sequence_length=3,
        task="link_prediction", link_samples=samples,
    )
    tr = Tracer(name="failure-injection")
    with use_tracer(tr):
        with pytest.raises(RuntimeError, match="injected"):
            trainer.train_epoch(dynamic_ds.features)
    # Every span closed on the way out of the raise...
    assert open_span_count() == 0
    # ...the failing timestamp (and its ancestors) carry the error tag...
    tagged = [e for e in tr.span_events() if e.args.get("error") == "RuntimeError"]
    assert any(e.name == "train.timestamp" and e.args["t"] == 1 for e in tagged)
    assert any(e.name == "train.epoch" for e in tagged)
    # ...and the Chrome export still has matched, well-nested B/E pairs.
    _assert_balanced(chrome_trace(tr)["traceEvents"])


def _assert_balanced(trace_events: list[dict]) -> None:
    stack: list[str] = []
    for e in trace_events:
        if e["ph"] == "B":
            stack.append(e["name"])
        elif e["ph"] == "E":
            assert stack and stack[-1] == e["name"], (
                f"unmatched E for {e['name']!r}; stack top: {stack[-1] if stack else None}"
            )
            stack.pop()
    assert not stack, f"dangling B events: {stack}"


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
def test_chrome_trace_structure(dynamic_ds):
    trainer, _ = _make_trainer(dynamic_ds)
    tr = Tracer(name="chrome")
    with use_tracer(tr):
        trainer.train_epoch(dynamic_ds.features)
    trace = chrome_trace(tr)
    events = trace["traceEvents"]
    assert trace["displayTimeUnit"] == "ms"
    assert events[0]["ph"] == "M"  # process_name metadata first
    _assert_balanced(events)
    # Timestamps non-decreasing (the format's required ordering).
    ts = [e["ts"] for e in events if e["ph"] in ("B", "E", "i")]
    assert ts == sorted(ts)
    # The taxonomy is present: per-timestamp spans with graph_update vs
    # per-aggregation forward/backward launches, plus the State Stack's bytes.
    names = {e["name"] for e in events}
    assert {"train.epoch", "train.sequence", "core.begin_timestamp", "core.backward_context",
            "tensor.backward", "tensor.optim_step", "train.timestamp"} <= names
    begins = [e for e in events if e["ph"] == "B"]
    assert any(e["name"] == "train.timestamp" and "state_bytes" in e["args"] for e in begins)
    # Kernel spans carry the plan id in their kernel= attr.
    kernels = {e["args"]["kernel"] for e in begins if e["name"] == "device.kernel_launch"}
    assert any(k.startswith("plan_") and k.endswith("_fwd") for k in kernels)
    assert any(k.startswith("plan_") and k.endswith("_bwd") for k in kernels)
    # Allocator byte deltas ride on span args.
    assert any("mem_delta_bytes" in e.get("args", {}) for e in events if e["ph"] == "B")


def test_write_exporters_roundtrip(tmp_path, dynamic_ds):
    trainer, _ = _make_trainer(dynamic_ds)
    tr = Tracer(name="files")
    with use_tracer(tr):
        trainer.train_epoch(dynamic_ds.features)
    chrome_path = write_chrome_trace(tr, str(tmp_path / "out" / "run.json"))
    with open(chrome_path) as fh:
        assert json.load(fh)["otherData"]["tracer"] == "files"
    jsonl_path = write_jsonl(tr.events, str(tmp_path / "run.events.jsonl"))
    rows = [json.loads(line) for line in open(jsonl_path)]
    assert len(rows) == len(tr.events)
    assert all("name" in r and "ts_us" in r for r in rows)
    prom_path = write_prometheus(current_device(), str(tmp_path / "run.prom"))
    text = open(prom_path).read()
    assert 'repro_span_self_seconds_total{cat="gnn"}' in text
    assert "repro_memory_peak_bytes" in text
    assert "repro_kernel_launches_total" in text


def test_prometheus_text_without_tracer():
    """The totals are always on, so the self-time family needs no tracer
    and agrees with the phase family: they are one attribution."""
    with span("core.interpret"):
        pass
    text = prometheus_text(current_device())
    assert "repro_phase_seconds_total" in text
    values = {
        line.split(" ")[0]: line.split(" ")[1]
        for line in text.splitlines() if not line.startswith("#")
    }
    assert float(values['repro_span_self_seconds_total{cat="gnn"}']) > 0
    assert (values['repro_span_self_seconds_total{cat="gnn"}']
            == values['repro_phase_seconds_total{phase="gnn"}'])


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------
def test_manifest_collects_and_roundtrips(tmp_path, dynamic_ds):
    trainer, _ = _make_trainer(dynamic_ds)
    tr = Tracer(name="manifest-run")
    with use_tracer(tr):
        trainer.train_epoch(dynamic_ds.features)
    manifest = build_run_manifest(
        current_device(), graph=trainer.graph, run_name=tr.name,
        system="gpma", dataset=dynamic_ds.name,
        command="pytest", results={"final_loss": 1.0},
    )
    assert manifest.graph_kind == "gpma"
    assert manifest.plan_ids and all(p.startswith("plan_") for p in manifest.plan_ids)
    assert manifest.span_seconds.get("gnn", 0) > 0
    assert manifest.cache_config["enable_cache"] is True
    assert manifest.kernel_launches > 0
    assert manifest.counters["ctx_cache_hits"] >= 0
    path = manifest.write(str(tmp_path / "m" / "manifest.json"))
    loaded = RunManifest.load(path)
    assert loaded.plan_ids == manifest.plan_ids
    assert loaded.span_seconds == manifest.span_seconds
    assert loaded.results == {"final_loss": 1.0}
    # Unknown keys from future schemas are ignored on load.
    data = json.load(open(path))
    data["from_the_future"] = True
    with open(path, "w") as fh:
        json.dump(data, fh)
    assert RunManifest.load(path).run_name == "manifest-run"


# ---------------------------------------------------------------------------
# Non-interference: tracing must not change training
# ---------------------------------------------------------------------------
def test_losses_bitwise_identical_with_and_without_tracer(dynamic_ds):
    trainer_a, _ = _make_trainer(dynamic_ds, seed=11)
    losses_plain = trainer_a.train(dynamic_ds.features, epochs=3)

    trainer_b, _ = _make_trainer(dynamic_ds, seed=11)
    with use_tracer(Tracer(name="traced")):
        losses_traced = trainer_b.train(dynamic_ds.features, epochs=3)

    assert losses_plain == losses_traced  # bitwise, not approx


# ---------------------------------------------------------------------------
# Figure 9: one attribution, the totals' self time per category
# ---------------------------------------------------------------------------
def test_fig9_rows_use_span_aggregates():
    from repro.bench.measure import RunResult
    from repro.bench.report import fig9_rows, format_fig9_table

    r = RunResult(
        system="gpma", dataset="d", params={"F": 8},
        totals=Totals(cat_seconds={"gnn": 3.0, "graph_update": 1.0, "train": 999.0}),
    )
    assert r.time_split() == (3.0, 1.0)
    (row,) = fig9_rows([r])
    assert row["gnn_%"] == 75.0 and row["update_%"] == 25.0
    assert "gnn_%" in format_fig9_table([r])


def test_manifest_aggregates_lint_warnings():
    """Per-code warning totals from every cached plan's lint report."""
    from repro.compiler import compile_vertex_program, plan_cache
    from repro.compiler.diagnostics import LintReport

    compile_vertex_program(
        lambda v: v.agg_sum(lambda nb: nb.mlw), feature_widths={"mlw": "v"}
    )
    plan = plan_cache().plans()[0]
    clean = build_run_manifest(current_device())
    doctored = LintReport(subject=plan.name)
    doctored.add("STG005", "synthetic warning one")
    doctored.add("STG005", "synthetic warning two")
    original = plan.lint
    object.__setattr__(plan, "lint", doctored)  # frozen dataclass, test-only
    try:
        manifest = build_run_manifest(current_device())
    finally:
        object.__setattr__(plan, "lint", original)
    assert manifest.lint_warnings.get("STG005", 0) == clean.lint_warnings.get("STG005", 0) + 2
    loaded = RunManifest(**{"lint_warnings": manifest.lint_warnings})
    assert loaded.lint_warnings == manifest.lint_warnings
