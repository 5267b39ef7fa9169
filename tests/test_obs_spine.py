"""The telemetry spine: one record, three projections that cannot disagree.

* per-thread state is registered by object, so a reused thread ident never
  overwrites a dead thread's ring or shares its Chrome lane;
* the always-on device totals equal the aggregates recomputed from an
  installed tracer's events (calls exactly, seconds to 1e-9), and the
  scraped histograms equal the totals;
* the Prometheus families and label keys are the parent commit's, plus the
  two serving histograms that make a request attributable from ``/metrics``;
* ``docs/OBSERVABILITY.md``'s site table is the site table.
"""

from __future__ import annotations

import pathlib
import re
import threading

import numpy as np
import pytest

from repro.dataset import load_sx_mathoverflow
from repro.device import Device, use_device
from repro.obs import (
    SITES,
    FlightRecorder,
    Tracer,
    emit,
    installed,
    prometheus_text,
    snapshot_registry,
    span,
    use_flight_recorder,
    use_installed,
    use_tracer,
)
from repro.serve import InferenceEngine, random_update_batches
from repro.tensor import init
from repro.train import (
    STGraphLinkPredictor,
    STGraphNodeRegressor,
    STGraphTrainer,
    make_link_prediction_samples,
)


# ---------------------------------------------------------------------------
# Thread-ident reuse
# ---------------------------------------------------------------------------
def test_sequential_threads_keep_their_own_ring_and_lane(fresh_device):
    """CPython reuses ``threading.get_ident()`` once a thread is dead: three
    *sequential* threads recording 3 + 1 + 2 events used to leave
    ``total_recorded == 3`` (the third thread's ring replaced the first's)."""
    recorder = FlightRecorder(capacity=16)
    tracer = Tracer(name="idents")
    sinks = (tracer, recorder)
    for n_events in (3, 1, 2):
        def worker(n: int = n_events) -> None:
            with use_device(fresh_device), use_installed(sinks):
                for _ in range(n):
                    with span("train.timestamp", t=n, engine="kernel"):
                        pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert recorder.total_recorded == 6
    assert len(recorder.events()) == 6
    assert fresh_device.totals.read().calls("train.timestamp") == 6
    with pytest.raises(KeyError):
        span("train.timestamp", t=0)  # a labelled site must pass its labels (engine=)
    # One Chrome lane per thread, none shared with a dead thread's.
    lanes = {e.args["t"]: e.tid for e in tracer.events}
    assert sorted(lanes.values()) == [2, 3, 4]


def test_installed_pair_is_what_a_worker_inherits():
    tracer, recorder = Tracer(), FlightRecorder()
    assert installed() == (None, None)
    with use_tracer(tracer), use_flight_recorder(recorder):
        assert installed() == (tracer, recorder)
        seen = []
        thread = threading.Thread(target=lambda: seen.append(installed()))
        thread.start()
        thread.join(timeout=10)
        assert seen == [(None, None)]  # nothing is inherited implicitly
    assert installed() == (None, None)


# ---------------------------------------------------------------------------
# Totals == what the trace says, and the /metrics surface
# ---------------------------------------------------------------------------
#: Frozen from the parent commit (one traced GPMA epoch + a short serving
#: run): every Prometheus family and its label keys.
_PARENT_FAMILIES = {
    "repro_phase_seconds_total": {"phase"},
    "repro_events_total": {"event"},
    "repro_memory_current_bytes": set(),
    "repro_memory_peak_bytes": set(),
    "repro_memory_tag_bytes": {"tag"},
    "repro_memory_tag_peak_bytes": {"tag"},
    "repro_kernel_launches_total": set(),
    "repro_kernel_seconds_total": set(),
    "repro_span_self_seconds_total": {"cat"},
    "repro_timestamp_seconds": {"engine"},
    "repro_optimizer_step_seconds": set(),
    "repro_graph_advance_seconds": set(),
    "repro_graph_rebuild_seconds": set(),
    "repro_kernel_launch_seconds": {"tier"},
    "repro_serve_request_seconds": {"kind", "served_from"},
    "repro_serve_forward_seconds": set(),
    "repro_serve_ingest_seconds": set(),
    "repro_serve_batch_size": set(),
    "repro_serve_pending_updates": set(),
}
_NEW_FAMILIES = {
    "repro_serve_queue_wait_seconds": set(),
    "repro_serve_row_read_seconds": set(),
}
#: Families deleted since: the pending-updates gauge went with bounded
#: staleness (serving is strictly fresh, so nothing is ever left pending).
_REMOVED_FAMILIES = {"repro_serve_pending_updates"}


@pytest.fixture(scope="module")
def traced_run():
    """One traced GPMA epoch plus a short InferenceEngine run on one device."""
    ds = load_sx_mathoverflow(scale=0.01, feature_size=4, max_snapshots=6)
    device, tracer = Device(name="spine"), Tracer(name="spine")
    with use_device(device), use_tracer(tracer):
        samples = make_link_prediction_samples(ds.dtdg, 32, seed=7)
        init.set_seed(7)
        trainer = STGraphTrainer(
            STGraphLinkPredictor(4, 4), ds.build_gpma(), sequence_length=3,
            task="link_prediction", link_samples=samples,
        )
        trainer.train_epoch(ds.features)
        graph = ds.build_gpma()
        feats = np.ascontiguousarray(ds.features[-1], dtype=np.float32)
        with InferenceEngine(STGraphNodeRegressor(4, 4), graph, feats) as engine:
            engine.query(0)
            engine.query(1, "prediction")
            for update in random_update_batches(graph.dtdg, 2, seed=1):
                engine.enqueue_update(update)
                engine.query(2)
    # A generator fixture: this frame keeps ``graph`` alive for the module, so
    # the scrape sees resident tagged bytes whatever the collector is doing.
    yield device, tracer


def _recomputed(tracer):
    """(calls, inclusive seconds) per site and self seconds per category,
    from nothing but the tracer's events."""
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    cat_self: dict[str, float] = {}
    spans = tracer.span_events()
    child = {id(e): 0.0 for e in spans}
    for e in spans:
        if e.depth:
            parent = max(
                (p for p in spans if p.tid == e.tid and p.depth == e.depth - 1 and p.ts <= e.ts),
                key=lambda p: p.ts,
            )
            assert parent.ts + parent.dur >= e.ts + e.dur
            child[id(parent)] += e.dur
    for e in tracer.events:
        calls[e.name] = calls.get(e.name, 0) + (1 if e.dur is not None else e.args.get("n", 1))
        if e.dur is not None:
            seconds[e.name] = seconds.get(e.name, 0.0) + e.dur
            cat_self[e.cat] = cat_self.get(e.cat, 0.0) + max(0.0, e.dur - child[id(e)])
    return calls, seconds, cat_self


def test_totals_equal_aggregates_recomputed_from_trace(traced_run):
    device, tracer = traced_run
    assert tracer.dropped_events == 0
    totals = device.totals.read()
    calls, seconds, cat_self = _recomputed(tracer)
    assert {name: n for name, (n, _) in totals.site_totals.items()} == calls
    for name, (_, total) in totals.site_totals.items():
        assert total == pytest.approx(seconds.get(name, 0.0), abs=1e-9), name
    assert set(totals.cat_seconds) == {cat for cat, own in cat_self.items() if own > 0}
    for cat, own in totals.cat_seconds.items():
        assert own == pytest.approx(cat_self[cat], abs=1e-9), cat
    # Both halves ran: the training loop on lane 1, the dispatcher on its own.
    assert calls["train.timestamp"] == 6 and calls["serve.forward"] >= 1
    assert {e.tid for e in tracer.events if e.name == "serve.forward"} == {2}
    # Every recorded name is a row of the table with the row's category.
    assert {(e.name, e.cat) for e in tracer.events} <= {(s.name, s.cat) for s in SITES.values()}


def test_prometheus_families_and_label_keys_frozen_from_parent(traced_run):
    device, _ = traced_run
    families: dict[str, set[str]] = {}
    for line in prometheus_text(device).splitlines():
        if line.startswith("# TYPE "):
            families[line.split(" ")[2]] = set()
        elif not line.startswith("#"):
            sample, labels = re.match(r"(\w+)(?:\{(.*)\})? ", line).groups()
            family = next(f for f in (sample, sample.rsplit("_", 1)[0]) if f in families)
            families[family] |= set(re.findall(r'(\w+)="', labels or "")) - {"le"}
    kept = {k: v for k, v in _PARENT_FAMILIES.items() if k not in _REMOVED_FAMILIES}
    assert families == {**kept, **_NEW_FAMILIES}


def test_request_latency_is_attributable_from_metrics(traced_run):
    """Every request has one queue-wait observation, every served batch one
    row-read, and the parts stay inside the whole."""
    device, _ = traced_run
    metrics = snapshot_registry(device)

    def children(name):
        return [child for _, child in metrics.get(name).child_items()]

    requests = children("repro_serve_request_seconds")
    (queue_wait,) = children("repro_serve_queue_wait_seconds")
    (row_read,) = children("repro_serve_row_read_seconds")
    (batches,) = children("repro_serve_batch_size")
    assert sum(c.count for c in requests) == queue_wait.count == 4
    assert row_read.count == batches.count
    assert queue_wait.sum + row_read.sum <= sum(c.sum for c in requests)


def test_histogram_counts_and_sums_are_the_site_totals(traced_run):
    """Every interval site with a histogram: its children's ``_count`` in
    the scrape sum to the site's calls, their ``_sum`` to its inclusive
    seconds."""
    device, tracer = traced_run
    text = prometheus_text(device)
    totals = device.totals.read()

    def scraped(series):
        return [float(line.rsplit(" ", 1)[1]) for line in text.splitlines()
                if re.match(rf"{series}(\{{|\s)", line)]

    checked = {e.name for e in tracer.span_events() if SITES[e.name].hist}
    for name in checked:
        calls, seconds = totals.site_totals[name]
        hist = SITES[name].hist
        assert sum(scraped(f"{hist}_count")) == calls, name
        assert sum(scraped(f"{hist}_sum")) == pytest.approx(seconds, abs=1e-9), name
    assert {"train.timestamp", "device.kernel_launch", "serve.forward"} <= checked


# ---------------------------------------------------------------------------
# The emit side of the table
# ---------------------------------------------------------------------------
def test_failure_edge_rows_drain_the_ring(fresh_device):
    recorder = FlightRecorder(capacity=8)
    with use_flight_recorder(recorder):
        emit("core.kernel_retry", program="p", dir="fwd", t=1)  # flight row, no drain
        assert recorder.drain_count() == 0
        emit("core.engine_fallback", program="p", dir="fwd", t=1, engine="interpreter")
        emit("core.ctx_cache_hit")  # not a flight row
    assert [d["reason"] for d in recorder.drains] == ["engine_fallback"]
    assert [(e["kind"], e["name"]) for e in recorder.events()] == [
        ("counter", "core.kernel_retry"), ("counter", "core.engine_fallback"),
    ]
    assert fresh_device.totals.read().counters()["engine_fallbacks"] == 1


# ---------------------------------------------------------------------------
# The doc is written from the table
# ---------------------------------------------------------------------------
def test_observability_doc_lists_exactly_the_site_table():
    doc = (pathlib.Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md").read_text()
    section = doc.split("## Site table", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines() if line.startswith("| `")
    ]
    documented = {row[0].strip("`"): row for row in rows}
    assert set(documented) == set(SITES)
    for name, site in SITES.items():
        _, kind, cat, feeds = documented[name][:4]
        assert cat == f"`{site.cat}`", name
        named = set(re.findall(r"`([\w.]+)`", feeds))
        expected = {x for x in (site.counter, site.hist, site.drain) if x}
        assert named == expected, name
    # ...and every histogram family is in the metric table with its labels.
    metric_table = doc.split("## Live metric registry", 1)[1].split("\n## ", 1)[0]
    listed = {
        row[0]: set(re.findall(r"`(\w+)`", row[1]))
        for row in (
            [cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in metric_table.splitlines() if line.startswith("| `repro_")
        )
    }
    listed = {name.strip("`"): labels for name, labels in listed.items()}
    assert listed == {s.hist: set(s.labels) for s in SITES.values() if s.hist}
