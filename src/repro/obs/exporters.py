"""Trace and metrics exporters: Chrome trace JSON, JSONL, Prometheus text.

Three formats for three audiences:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the
  ``chrome://tracing`` / Perfetto JSON object format (``traceEvents`` with
  matched ``B``/``E`` pairs per span and ``i`` instants), for interactive
  flame-chart inspection of one run.
* :func:`write_jsonl` — one JSON object per event, for ``jq``-style diffing
  of traces across PRs.
* :func:`prometheus_text` — a text-format dump of the device totals (per
  phase, counter, site and category, the latency histograms) and the
  allocator's residency/peaks incl. per-tag, for scraping or snapshotting
  next to ``BENCH_*.json``.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Iterable

from repro.obs.metrics import Histogram, MetricRegistry
from repro.obs.spine import SITES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.device.device import Device
    from repro.obs.tracer import SpanEvent, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "prometheus_text",
    "snapshot_registry",
    "write_prometheus",
]

_PID = 1  # one "process": the simulated device


def chrome_trace(tracer: "Tracer", tid: int = 1) -> dict[str, Any]:
    """The tracer's events as a Chrome-trace JSON object (``traceEvents``).

    Every completed span becomes a matched ``B``/``E`` pair; instants become
    ``i`` events.  Events are emitted sorted by timestamp with ``E`` before
    ``B`` on ties, which is the ordering the Trace Event format requires for
    well-nested stacks.  Spans recorded on worker threads carry the tracer's
    per-thread lane in ``SpanEvent.tid`` (2+), so overlap with the main
    lane is visible as parallel tracks; ``tid`` here only renames lane 1.
    """
    raw: list[tuple[float, int, dict]] = []
    lanes = {1: tid}
    for e in tracer.events:
        lane = lanes.setdefault(getattr(e, "tid", 1), e.tid)
        ts_us = e.ts * 1e6
        if e.dur is None:
            raw.append((ts_us, 1, {
                "name": e.name, "cat": e.cat or "instant", "ph": "i", "s": "t",
                "ts": round(ts_us, 3), "pid": _PID, "tid": lane,
                "args": e.args,
            }))
            continue
        end_us = (e.ts + e.dur) * 1e6
        raw.append((ts_us, 1, {
            "name": e.name, "cat": e.cat or "span", "ph": "B",
            "ts": round(ts_us, 3), "pid": _PID, "tid": lane, "args": e.args,
        }))
        raw.append((end_us, 0, {
            "name": e.name, "cat": e.cat or "span", "ph": "E",
            "ts": round(end_us, 3), "pid": _PID, "tid": lane,
        }))
    raw.sort(key=lambda item: (item[0], item[1]))
    events = [
        {
            "name": "process_name", "ph": "M", "pid": _PID, "tid": tid,
            "args": {"name": f"repro:{tracer.name}"},
        }
    ]
    for lane_id in sorted(set(lanes.values()) - {tid}):
        events.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": lane_id,
            "args": {"name": f"worker-{lane_id}"},
        })
    events.extend(item[2] for item in raw)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tracer": tracer.name,
            "dropped_events": tracer.dropped_events,
        },
    }


def write_chrome_trace(tracer: "Tracer", path: str) -> str:
    """Write :func:`chrome_trace` output to ``path``; returns the path."""
    _ensure_parent(path)
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer), fh)
    return path


def write_jsonl(events: "Iterable[SpanEvent]", path: str) -> str:
    """Write one JSON object per event to ``path``; returns the path."""
    _ensure_parent(path)
    with open(path, "w") as fh:
        for e in events:
            fh.write(json.dumps(e.to_dict()) + "\n")
    return path


def snapshot_registry(device: "Device") -> MetricRegistry:
    """A throwaway registry holding everything a scrape should expose.

    One read of the device totals (phase and category self seconds, event
    counters, the ``device.kernel_launch`` site, the latency histogram rows)
    and the allocator's residency are snapshotted into fresh families in
    their historical order and names.  Both the post-hoc dump and the live
    ``/metrics`` endpoint render the result through
    :meth:`MetricRegistry.render`, so there is exactly one code path
    deciding names, labels, and escaping.
    """
    reg = MetricRegistry()
    totals = device.totals.read()
    phases = reg.counter(
        "repro_phase_seconds_total", "Accumulated wall seconds per profiler phase.")
    for name, seconds in totals.phase_seconds().items():
        phases.labels(phase=name).inc(seconds)
    events = reg.counter(
        "repro_events_total", "Accumulated event counts (cache reuse etc.).")
    for name, count in totals.counters().items():
        events.labels(event=name).inc(float(count))
    tracker = device.tracker
    reg.gauge("repro_memory_current_bytes",
              "Bytes currently device-resident.").labels().set(float(tracker.current_bytes))
    reg.gauge("repro_memory_peak_bytes",
              "High-water mark of device residency.").labels().set(float(tracker.peak_bytes))
    by_tag = tracker.bytes_by_tag()
    if by_tag:
        fam = reg.gauge("repro_memory_tag_bytes", "Current resident bytes per allocation tag.")
        for tag, b in sorted(by_tag.items()):
            fam.labels(tag=tag or "untagged").set(float(b))
    peak_by_tag = tracker.peak_bytes_by_tag()
    if peak_by_tag:
        fam = reg.gauge("repro_memory_tag_peak_bytes", "Peak resident bytes per allocation tag.")
        for tag, b in sorted(peak_by_tag.items()):
            fam.labels(tag=tag or "untagged").set(float(b))
    launches, launch_seconds = totals.site_totals.get("device.kernel_launch", (0, 0.0))
    reg.counter("repro_kernel_launches_total",
                "Kernel launches on this device.").labels().inc(float(launches))
    reg.counter("repro_kernel_seconds_total",
                "Wall seconds inside launched kernels.").labels().inc(launch_seconds)
    fam = reg.counter("repro_span_self_seconds_total",
                      "Span self time (duration minus children) per category.")
    for cat, seconds in sorted(totals.cat_seconds.items()):
        fam.labels(cat=cat).inc(seconds)
    for (name, values), (counts, total) in sorted(totals.histograms.items()):
        site = SITES[name]
        assert site.hist is not None
        child = reg.histogram(site.hist, site.help, site.buckets).labels(**dict(zip(site.labels, values)))
        assert isinstance(child, Histogram)
        child.set(counts, total)
    return reg


def prometheus_text(device: "Device") -> str:
    """Prometheus text-format dump of the device's metric registry.

    Covers the device totals (phase and category self seconds, event
    counters, kernel-launch totals, latency histograms) and the allocator's
    current/peak residency (global and per tag).
    The live ``/metrics`` telemetry endpoint serves this exact function, so
    post-hoc dumps and scrapes cannot drift.
    """
    return snapshot_registry(device).render()


def write_prometheus(device: "Device", path: str) -> str:
    """Write :func:`prometheus_text` to ``path``; returns the path."""
    _ensure_parent(path)
    with open(path, "w") as fh:
        fh.write(prometheus_text(device))
    return path


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
