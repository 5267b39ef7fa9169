"""Prometheus exposition: exact text, escaping and histogram semantics.

Covers the live-telemetry acceptance criteria: the text of a known device
state is pinned byte for byte, label escaping survives a round trip through
the exposition format, histogram buckets are cumulative and monotone with
``+Inf`` equal to ``_count``, ``_sum`` tracks observed values, sample values
parse back exactly, and the renderer emits the legacy metric names
unchanged.  Every state is recorded through ``emit`` / ``span`` on a device,
the way instrumented sites record it.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from repro.device import Device, current_device, use_device
from repro.obs import (
    DEFAULT_BUCKETS,
    SITES,
    emit,
    log_buckets,
    prometheus_text,
    span,
    write_prometheus,
)


def _sample(text: str, series: str) -> str:
    (value,) = [ln.rsplit(" ", 1)[1] for ln in text.splitlines() if ln.startswith(series + " ")]
    return value


def _buckets(text: str, family: str) -> list[tuple[str, int]]:
    """``(le, cumulative count)`` of every bucket line of ``family``."""
    return [(le, int(count)) for le, count in
            re.findall(rf'^{family}_bucket\{{.*le="([^"]+)"\}} (\d+)$', text, re.MULTILINE)]


# ---------------------------------------------------------------------------
# Golden exposition
# ---------------------------------------------------------------------------
def test_golden_exposition_text():
    """The exact text of one state built from events only: both scalar
    kinds, a labelled and an unlabelled histogram, non-default buckets, a
    counter past six digits, a non-integral sum and an escaped tag."""
    device = Device(name="golden")
    with use_device(device):
        emit("serve.query", seconds=0.003, kind="embedding", served_from="cache")
        emit("serve.query", seconds=2.5e-5, kind="prediction", served_from="forward")
        emit("serve.batch", size=3.0)
        emit("serve.queue_wait", seconds=0.1 + 0.2)
        emit("graph.csr_cache_hits", 1_234_567)
        device.tracker.manual_add(68_448_196, tag='a"b')
    text = prometheus_text(device)
    assert text == _GOLDEN
    assert len(text.splitlines()) == 144
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8fe3caf67b1f401e1eb2a0fea35ec87c94d9360de22a4826fbd0086c0f50af2c")


_GOLDEN = """\
# HELP repro_phase_seconds_total Accumulated wall seconds per profiler phase.
# TYPE repro_phase_seconds_total counter
repro_phase_seconds_total{phase="compile"} 0
repro_phase_seconds_total{phase="gnn"} 0
repro_phase_seconds_total{phase="graph_update"} 0
repro_phase_seconds_total{phase="preprocess"} 0
# HELP repro_events_total Accumulated event counts (cache reuse etc.).
# TYPE repro_events_total counter
repro_events_total{event="cache_fault_rebuilds"} 0
repro_events_total{event="csr_cache_hits"} 1234567
repro_events_total{event="csr_cache_misses"} 0
repro_events_total{event="ctx_cache_hits"} 0
repro_events_total{event="ctx_cache_misses"} 0
repro_events_total{event="engine_fallbacks"} 0
repro_events_total{event="faults_injected"} 0
repro_events_total{event="kernel_retries"} 0
repro_events_total{event="noop_updates_skipped"} 0
repro_events_total{event="sequence_aborts"} 0
# HELP repro_memory_current_bytes Bytes currently device-resident.
# TYPE repro_memory_current_bytes gauge
repro_memory_current_bytes 68448196
# HELP repro_memory_peak_bytes High-water mark of device residency.
# TYPE repro_memory_peak_bytes gauge
repro_memory_peak_bytes 68448196
# HELP repro_memory_tag_bytes Current resident bytes per allocation tag.
# TYPE repro_memory_tag_bytes gauge
repro_memory_tag_bytes{tag="a\\"b"} 68448196
# HELP repro_memory_tag_peak_bytes Peak resident bytes per allocation tag.
# TYPE repro_memory_tag_peak_bytes gauge
repro_memory_tag_peak_bytes{tag="a\\"b"} 68448196
# HELP repro_kernel_launches_total Kernel launches on this device.
# TYPE repro_kernel_launches_total counter
repro_kernel_launches_total 0
# HELP repro_kernel_seconds_total Wall seconds inside launched kernels.
# TYPE repro_kernel_seconds_total counter
repro_kernel_seconds_total 0
# HELP repro_span_self_seconds_total Span self time (duration minus children) per category.
# TYPE repro_span_self_seconds_total counter
# HELP repro_serve_batch_size Coalesced request-batch sizes.
# TYPE repro_serve_batch_size histogram
repro_serve_batch_size_bucket{le="1"} 0
repro_serve_batch_size_bucket{le="2"} 0
repro_serve_batch_size_bucket{le="4"} 1
repro_serve_batch_size_bucket{le="8"} 1
repro_serve_batch_size_bucket{le="16"} 1
repro_serve_batch_size_bucket{le="32"} 1
repro_serve_batch_size_bucket{le="64"} 1
repro_serve_batch_size_bucket{le="128"} 1
repro_serve_batch_size_bucket{le="256"} 1
repro_serve_batch_size_bucket{le="512"} 1
repro_serve_batch_size_bucket{le="+Inf"} 1
repro_serve_batch_size_sum 3
repro_serve_batch_size_count 1
# HELP repro_serve_request_seconds Serving request latency (enqueue to response), by kind and source.
# TYPE repro_serve_request_seconds histogram
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="1e-06"} 0
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="2e-06"} 0
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="4e-06"} 0
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="8e-06"} 0
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="1.6e-05"} 0
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="3.2e-05"} 0
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="6.4e-05"} 0
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="0.000128"} 0
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="0.000256"} 0
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="0.000512"} 0
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="0.001024"} 0
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="0.002048"} 0
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="0.004096"} 1
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="0.008192"} 1
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="0.016384"} 1
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="0.032768"} 1
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="0.065536"} 1
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="0.131072"} 1
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="0.262144"} 1
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="0.524288"} 1
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="1.048576"} 1
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="2.097152"} 1
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="4.194304"} 1
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="8.388608"} 1
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="16.777216"} 1
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="33.554432"} 1
repro_serve_request_seconds_bucket{kind="embedding",served_from="cache",le="+Inf"} 1
repro_serve_request_seconds_sum{kind="embedding",served_from="cache"} 0.003
repro_serve_request_seconds_count{kind="embedding",served_from="cache"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="1e-06"} 0
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="2e-06"} 0
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="4e-06"} 0
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="8e-06"} 0
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="1.6e-05"} 0
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="3.2e-05"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="6.4e-05"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="0.000128"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="0.000256"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="0.000512"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="0.001024"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="0.002048"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="0.004096"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="0.008192"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="0.016384"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="0.032768"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="0.065536"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="0.131072"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="0.262144"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="0.524288"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="1.048576"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="2.097152"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="4.194304"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="8.388608"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="16.777216"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="33.554432"} 1
repro_serve_request_seconds_bucket{kind="prediction",served_from="forward",le="+Inf"} 1
repro_serve_request_seconds_sum{kind="prediction",served_from="forward"} 2.5e-05
repro_serve_request_seconds_count{kind="prediction",served_from="forward"} 1
# HELP repro_serve_queue_wait_seconds Serving queue wait (enqueue to dispatch, behind any ingest or batch ahead).
# TYPE repro_serve_queue_wait_seconds histogram
repro_serve_queue_wait_seconds_bucket{le="1e-06"} 0
repro_serve_queue_wait_seconds_bucket{le="2e-06"} 0
repro_serve_queue_wait_seconds_bucket{le="4e-06"} 0
repro_serve_queue_wait_seconds_bucket{le="8e-06"} 0
repro_serve_queue_wait_seconds_bucket{le="1.6e-05"} 0
repro_serve_queue_wait_seconds_bucket{le="3.2e-05"} 0
repro_serve_queue_wait_seconds_bucket{le="6.4e-05"} 0
repro_serve_queue_wait_seconds_bucket{le="0.000128"} 0
repro_serve_queue_wait_seconds_bucket{le="0.000256"} 0
repro_serve_queue_wait_seconds_bucket{le="0.000512"} 0
repro_serve_queue_wait_seconds_bucket{le="0.001024"} 0
repro_serve_queue_wait_seconds_bucket{le="0.002048"} 0
repro_serve_queue_wait_seconds_bucket{le="0.004096"} 0
repro_serve_queue_wait_seconds_bucket{le="0.008192"} 0
repro_serve_queue_wait_seconds_bucket{le="0.016384"} 0
repro_serve_queue_wait_seconds_bucket{le="0.032768"} 0
repro_serve_queue_wait_seconds_bucket{le="0.065536"} 0
repro_serve_queue_wait_seconds_bucket{le="0.131072"} 0
repro_serve_queue_wait_seconds_bucket{le="0.262144"} 0
repro_serve_queue_wait_seconds_bucket{le="0.524288"} 1
repro_serve_queue_wait_seconds_bucket{le="1.048576"} 1
repro_serve_queue_wait_seconds_bucket{le="2.097152"} 1
repro_serve_queue_wait_seconds_bucket{le="4.194304"} 1
repro_serve_queue_wait_seconds_bucket{le="8.388608"} 1
repro_serve_queue_wait_seconds_bucket{le="16.777216"} 1
repro_serve_queue_wait_seconds_bucket{le="33.554432"} 1
repro_serve_queue_wait_seconds_bucket{le="+Inf"} 1
repro_serve_queue_wait_seconds_sum 0.30000000000000004
repro_serve_queue_wait_seconds_count 1
"""


def test_site_table_maps_one_site_to_one_family():
    """The renderer writes one histogram family per site: family names are
    unique, no site labels a child ``le``, and bucket bounds increase."""
    hists = [site.hist for site in SITES.values() if site.hist]
    assert len(hists) == len(set(hists))
    assert not any("le" in site.labels for site in SITES.values())
    for site in SITES.values():
        assert all(b > a for a, b in zip(site.buckets, site.buckets[1:])), site.name


# ---------------------------------------------------------------------------
# Escaping
# ---------------------------------------------------------------------------
def test_label_escaping_round_trip(fresh_device):
    raw = 'line1\nline2 "quoted" back\\slash'
    emit("serve.query", seconds=0.01, kind=raw, served_from="cache")
    text = prometheus_text(fresh_device)
    (escaped,) = re.findall(r'^repro_serve_request_seconds_count\{kind="((?:[^"\\]|\\.)*)",',
                            text, re.MULTILINE)
    assert "\n" not in escaped
    # Prometheus unescape: \\ -> \, \" -> ", \n -> newline.
    unescaped = (
        escaped.replace("\\\\", "\x00")
        .replace('\\"', '"')
        .replace("\\n", "\n")
        .replace("\x00", "\\")
    )
    assert unescaped == raw


def test_escaped_labels_render_on_one_line(fresh_device):
    for _ in range(2):
        emit("serve.query", seconds=0.01, kind='a"b\nc\\d', served_from="cache")
    rendered = prometheus_text(fresh_device)
    line = [ln for ln in rendered.splitlines() if ln.startswith("repro_serve_request_seconds_count{")]
    assert len(line) == 1
    assert line[0].endswith(" 2")


# ---------------------------------------------------------------------------
# Histogram math
# ---------------------------------------------------------------------------
def test_log_buckets_shape():
    bounds = log_buckets(1e-6, 2.0, 26)
    assert len(bounds) == 26
    assert bounds[0] == pytest.approx(1e-6)
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert DEFAULT_BUCKETS == bounds


def test_histogram_cumulative_monotone_and_inf_equals_count(fresh_device):
    rng = np.random.default_rng(0)
    values = rng.uniform(1e-6, 10.0, size=500)
    for v in values:
        emit("serve.queue_wait", seconds=float(v))
    text = prometheus_text(fresh_device)
    cum = _buckets(text, "repro_serve_queue_wait_seconds")
    counts = [c for _, c in cum]
    assert counts == sorted(counts), "cumulative buckets must be monotone"
    assert cum[-1][0] == "+Inf"
    assert cum[-1][1] == int(_sample(text, "repro_serve_queue_wait_seconds_count")) == 500
    assert float(_sample(text, "repro_serve_queue_wait_seconds_sum")) == pytest.approx(values.sum())


def test_histogram_overflow_lands_in_inf_bucket(fresh_device):
    emit("serve.batch", size=1000.0)  # past the last finite bound, 512
    text = prometheus_text(fresh_device)
    cum = _buckets(text, "repro_serve_batch_size")
    assert cum == [(le, 0) for le in ("1", "2", "4", "8", "16", "32", "64", "128", "256", "512")] \
        + [("+Inf", 1)]
    assert _sample(text, "repro_serve_batch_size_count") == "1"
    assert _sample(text, "repro_serve_batch_size_sum") == "1000"


def test_histogram_render_has_inf_bucket_and_sum_count(fresh_device):
    for seconds in (0.05, 5.0):
        emit("serve.query", seconds=seconds, kind="embedding", served_from="cache")
    lines = prometheus_text(fresh_device).splitlines()
    bucket_lines = [ln for ln in lines if "repro_serve_request_seconds_bucket" in ln]
    assert any('le="+Inf"' in ln and ln.endswith(" 2") for ln in bucket_lines)
    assert 'repro_serve_request_seconds_count{kind="embedding",served_from="cache"} 2' in lines
    assert any(ln.startswith('repro_serve_request_seconds_sum{kind="embedding",served_from="cache"} ')
               for ln in lines)
    inf_value = next(int(ln.rsplit(" ", 1)[1]) for ln in bucket_lines if 'le="+Inf"' in ln)
    count_value = next(int(ln.rsplit(" ", 1)[1]) for ln in lines if "_count{" in ln)
    assert inf_value == count_value


# ---------------------------------------------------------------------------
# One renderer for the post-hoc dump and the live scrape
# ---------------------------------------------------------------------------
def test_prometheus_text_preserves_legacy_names():
    text = prometheus_text(current_device())
    for name in (
        "repro_phase_seconds_total",
        "repro_events_total",
        "repro_memory_current_bytes",
        "repro_memory_peak_bytes",
        "repro_kernel_launches_total",
        "repro_kernel_seconds_total",
    ):
        assert f"# TYPE {name}" in text, f"legacy family {name} missing"
    # Legacy formatting: integers render as bare "0", not "0.0".
    assert 'repro_phase_seconds_total{phase="compile"} 0' in text


def test_snapshot_registry_includes_live_device_metrics(tmp_path):
    """A span's histogram child is in the scrape, and the post-hoc dump
    writes the same text."""
    device = current_device()
    with span("train.timestamp", t=0, engine="kernel"):
        pass
    text = prometheus_text(device)
    assert 'repro_timestamp_seconds_bucket{engine="kernel"' in text
    with open(write_prometheus(device, str(tmp_path / "run.prom"))) as fh:
        assert fh.read() == text


def test_sample_values_parse_back_exactly(fresh_device):
    """Counters past 999 999, byte gauges and histogram sums keep every
    digit (``{:g}`` kept six significant digits: ``6.84482e+07``)."""
    emit("graph.csr_cache_hits", 1_234_567)
    handle = fresh_device.tracker.manual_add(68_448_196)
    fresh_device.tracker.manual_release(handle)
    with span("graph.build_snapshot"):
        pass
    text = prometheus_text(fresh_device)
    assert _sample(text, 'repro_events_total{event="csr_cache_hits"}') == "1234567"
    assert _sample(text, "repro_memory_peak_bytes") == "68448196"
    assert _sample(text, 'repro_memory_tag_peak_bytes{tag="untagged"}') == "68448196"
    assert _sample(text, "repro_memory_current_bytes") == "0"
    ((_, total),) = fresh_device.totals.read().histograms.values()
    assert float(_sample(text, "repro_graph_rebuild_seconds_sum")) == total
    emit("serve.queue_wait", seconds=0.1 + 0.2)
    assert float(_sample(prometheus_text(fresh_device), "repro_serve_queue_wait_seconds_sum")) \
        == 0.1 + 0.2
