"""Metric registry: Prometheus exposition correctness and histogram math.

Covers the live-telemetry acceptance criteria: label escaping survives a
round trip through the exposition format, histogram buckets are cumulative
and monotone with ``+Inf`` equal to ``_count``, ``_sum`` tracks observed
values, quantile estimates land within one bucket width of the truth, and
the unified renderer emits the legacy metric names unchanged.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.device import current_device
from repro.obs import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricRegistry,
    log_buckets,
    prometheus_text,
    snapshot_registry,
)
from repro.obs.metrics import prom_escape


# ---------------------------------------------------------------------------
# Escaping
# ---------------------------------------------------------------------------
def test_label_escaping_round_trip():
    raw = 'line1\nline2 "quoted" back\\slash'
    escaped = prom_escape(raw)
    assert "\n" not in escaped
    # Prometheus unescape: \\ -> \, \" -> ", \n -> newline.
    unescaped = (
        escaped.replace("\\\\", "\x00")
        .replace('\\"', '"')
        .replace("\\n", "\n")
        .replace("\x00", "\\")
    )
    assert unescaped == raw


def test_escaped_labels_render_on_one_line():
    reg = MetricRegistry()
    reg.counter("repro_test_total", "help").labels(tag='a"b\nc\\d').inc(2)
    rendered = reg.render()
    line = [ln for ln in rendered.splitlines() if ln.startswith("repro_test_total{")]
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


def test_histogram_cumulative_monotone_and_inf_equals_count():
    h = Histogram()
    rng = np.random.default_rng(0)
    values = rng.uniform(1e-6, 10.0, size=500)
    for v in values:
        h.observe(float(v))
    cum = h.cumulative()
    counts = [c for _, c in cum]
    assert counts == sorted(counts), "cumulative buckets must be monotone"
    assert cum[-1][0] == math.inf
    assert cum[-1][1] == h.count == 500
    assert h.sum == pytest.approx(values.sum())


def test_histogram_overflow_lands_in_inf_bucket():
    h = Histogram(bounds=[1.0, 2.0])
    h.observe(100.0)
    cum = h.cumulative()
    assert cum == [(1.0, 0), (2.0, 0), (math.inf, 1)]


def test_quantile_within_one_bucket_width():
    h = Histogram()
    rng = np.random.default_rng(7)
    values = np.sort(rng.uniform(1e-4, 1.0, size=2000))
    for v in values:
        h.observe(float(v))
    for q in (0.5, 0.95, 0.99):
        true = float(values[int(q * len(values)) - 1])
        est = h.quantile(q)
        # The estimate must land in the true value's bucket or a neighbour:
        # error bounded by one (log-scale) bucket width.
        import bisect
        idx = bisect.bisect_left(h.bounds, true)
        lo = h.bounds[idx - 1] if idx > 0 else 0.0
        hi = h.bounds[min(idx + 1, len(h.bounds) - 1)]
        assert lo <= est <= hi, f"q={q}: est {est} not within ({lo}, {hi}) around {true}"


def test_quantile_empty_is_nan_and_inf_clamps():
    h = Histogram(bounds=[1.0, 2.0])
    assert math.isnan(h.quantile(0.5))
    h.observe(50.0)  # +Inf bucket only
    assert h.quantile(0.99) == 2.0  # clamped to last finite bound


def test_histogram_merge():
    a, b = Histogram(), Histogram()
    for v in (0.001, 0.01):
        a.observe(v)
    for v in (0.1, 1.0, 10.0):
        b.observe(v)
    a.merge(b)
    assert a.count == 5
    assert a.sum == pytest.approx(11.111)
    with pytest.raises(ValueError):
        a.merge(Histogram(bounds=[1.0]))


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------
def test_registry_kind_and_bucket_mismatch_rejected():
    reg = MetricRegistry()
    reg.counter("x_total", "h")
    with pytest.raises(ValueError):
        reg.gauge("x_total", "h")
    reg.histogram("y_seconds", "h")
    with pytest.raises(ValueError):
        reg.histogram("y_seconds", "h", buckets=[1.0])


def test_registry_reset_keeps_cached_children_live():
    reg = MetricRegistry()
    child = reg.counter("x_total", "h").labels(tier="cpu")
    child.inc(3)
    reg.reset()
    assert "x_total" in reg.render() or child.value == 0
    assert child.value == 0
    child.inc(1)  # cached reference must still feed the registry
    assert 'x_total{tier="cpu"} 1' in reg.render()


def test_counter_rejects_negative():
    reg = MetricRegistry()
    with pytest.raises(ValueError):
        reg.counter("x_total", "h").labels().inc(-1)


def test_histogram_render_has_inf_bucket_and_sum_count():
    reg = MetricRegistry()
    h = reg.histogram("repro_lat_seconds", "h", buckets=[0.1, 1.0]).labels(op="f")
    h.observe(0.05)
    h.observe(5.0)
    lines = reg.render().splitlines()
    bucket_lines = [ln for ln in lines if "repro_lat_seconds_bucket" in ln]
    assert any('le="+Inf"' in ln and ln.endswith(" 2") for ln in bucket_lines)
    assert any('repro_lat_seconds_count{op="f"} 2' == ln for ln in lines)
    assert any(ln.startswith('repro_lat_seconds_sum{op="f"} ') for ln in lines)
    inf_value = next(int(ln.rsplit(" ", 1)[1]) for ln in bucket_lines if 'le="+Inf"' in ln)
    count_value = next(int(ln.rsplit(" ", 1)[1]) for ln in lines if "_count{" in ln)
    assert inf_value == count_value


# ---------------------------------------------------------------------------
# Unified renderer: one code path for post-hoc dump and live scrape
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


def test_snapshot_registry_includes_live_device_metrics():
    device = current_device()
    device.metrics.histogram("repro_timestamp_seconds", "h").labels(engine="kernel").observe(0.01)
    text = snapshot_registry(device).render()
    assert 'repro_timestamp_seconds_bucket{engine="kernel"' in text
    assert text == prometheus_text(device)
