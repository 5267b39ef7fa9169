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
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.obs.spine import SITES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.device.device import Device
    from repro.obs.tracer import SpanEvent, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "prometheus_text",
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


def prom_escape(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    """Prometheus sample value: integral values as bare integers (``0``, not
    ``0.0``), others at full round-trip precision."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def _braces(labels: list[str]) -> str:
    return "{" + ",".join(labels) + "}" if labels else ""


def prometheus_text(device: "Device") -> str:
    """Prometheus text-format dump of one read of the device totals.

    Nine scalar families (phase and category self seconds, event counters,
    kernel-launch totals, the allocator's current/peak residency, global
    and per tag), then one histogram family per site that has observations,
    in site-name order.  Samples are sorted by their label pairs.  The live
    ``/metrics`` telemetry endpoint serves this exact function, so post-hoc
    dumps and scrapes cannot drift.
    """
    totals = device.totals.read()
    tracker = device.tracker
    lines: list[str] = []

    def header(name: str, kind: str, help_text: str) -> None:
        lines.extend((f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"))

    def scalar(name: str, kind: str, help_text: str, value: float) -> None:
        header(name, kind, help_text)
        lines.append(f"{name} {_fmt(value)}")

    def labelled(name: str, kind: str, help_text: str, label: str,
                 samples: Mapping[str, float]) -> None:
        header(name, kind, help_text)
        for value, sample in sorted(samples.items()):
            lines.append(f'{name}{{{label}="{prom_escape(value)}"}} {_fmt(sample)}')

    labelled("repro_phase_seconds_total", "counter", "Accumulated wall seconds per profiler phase.",
             "phase", totals.phase_seconds())
    labelled("repro_events_total", "counter", "Accumulated event counts (cache reuse etc.).",
             "event", totals.counters())
    scalar("repro_memory_current_bytes", "gauge", "Bytes currently device-resident.",
           tracker.current_bytes)
    scalar("repro_memory_peak_bytes", "gauge", "High-water mark of device residency.",
           tracker.peak_bytes)
    by_tag = tracker.bytes_by_tag()
    if by_tag:
        labelled("repro_memory_tag_bytes", "gauge", "Current resident bytes per allocation tag.",
                 "tag", {tag or "untagged": b for tag, b in sorted(by_tag.items())})
    peak_by_tag = tracker.peak_bytes_by_tag()
    if peak_by_tag:
        labelled("repro_memory_tag_peak_bytes", "gauge", "Peak resident bytes per allocation tag.",
                 "tag", {tag or "untagged": b for tag, b in sorted(peak_by_tag.items())})
    launches, launch_seconds = totals.site_totals.get("device.kernel_launch", (0, 0.0))
    scalar("repro_kernel_launches_total", "counter", "Kernel launches on this device.", launches)
    scalar("repro_kernel_seconds_total", "counter", "Wall seconds inside launched kernels.",
           launch_seconds)
    labelled("repro_span_self_seconds_total", "counter",
             "Span self time (duration minus children) per category.", "cat", totals.cat_seconds)

    rows: dict[str, list[tuple[list[tuple[str, str]], list[int], float]]] = {}
    for (name, values), (counts, total) in totals.histograms.items():
        rows.setdefault(name, []).append((sorted(zip(SITES[name].labels, values)), counts, total))
    for name in sorted(rows):
        site = SITES[name]
        hist = site.hist
        assert hist is not None
        header(hist, "histogram", site.help)
        les = [f'le="{_fmt(bound)}"' for bound in site.buckets] + ['le="+Inf"']
        for pairs, counts, total in sorted(rows[name]):
            labels = [f'{k}="{prom_escape(v)}"' for k, v in pairs]
            cumulative = list(accumulate(counts))
            for le, count in zip(les, cumulative):
                lines.append(f"{hist}_bucket{_braces([*labels, le])} {count}")
            lines.append(f"{hist}_sum{_braces(labels)} {_fmt(total)}")
            lines.append(f"{hist}_count{_braces(labels)} {cumulative[-1]}")
    return "\n".join(lines) + "\n"


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
