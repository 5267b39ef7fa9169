"""Observability: one telemetry spine and the views derived from it.

The subsystem's parts (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.spine` — the one module instrumented sites call:
  ``span(site, **attrs)`` / ``emit(site, n, **attrs)``, the site table, the
  per-thread open-interval stack, and the always-on device totals
  (:class:`LiveTotals` / :class:`Totals`, latency histogram rows included)
  that Figure 9, ``/metrics`` and the run manifest read.
* :mod:`repro.obs.tracer` — the :class:`Tracer` event buffer a run installs
  with :func:`use_tracer`; spans carry allocator bytes and counter deltas.
* :mod:`repro.obs.metrics` — the labeled :class:`MetricRegistry` with
  log-bucket latency :class:`Histogram` s (p50/p95/p99) that a scrape
  renders the totals through.
* :mod:`repro.obs.server` — the opt-in stdlib HTTP telemetry server
  (``/metrics``, ``/healthz``, ``/progress``) for live scrapes mid-run.
* :mod:`repro.obs.flight` — the bounded :class:`FlightRecorder` ring
  buffer, drained to ``flight.jsonl`` on aborts/fallbacks/kills.
* :mod:`repro.obs.exporters` — Chrome ``chrome://tracing`` JSON, a flat
  JSONL event log, and the Prometheus text renderer shared by post-hoc
  dumps and the live ``/metrics`` endpoint.
* :mod:`repro.obs.manifest` — the :class:`RunManifest` written per
  bench/train run (git rev, plan ids, dataset/graph kind, cache config,
  per-phase totals) so result trajectories are self-describing.
"""

from repro.obs.exporters import (
    chrome_trace,
    prometheus_text,
    snapshot_registry,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.flight import FlightRecorder
from repro.obs.manifest import RunManifest, build_run_manifest, git_revision
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricRegistry,
    log_buckets,
)
from repro.obs.server import TelemetryServer, TrainingProgress
from repro.obs.spine import (
    COUNTERS,
    PHASES,
    SITES,
    LiveTotals,
    Site,
    Totals,
    emit,
    installed,
    open_span_count,
    span,
    use_flight_recorder,
    use_installed,
    use_tracer,
)
from repro.obs.tracer import SpanEvent, Tracer

__all__ = [
    "span",
    "emit",
    "SITES",
    "Site",
    "PHASES",
    "COUNTERS",
    "Totals",
    "LiveTotals",
    "open_span_count",
    "installed",
    "use_installed",
    "Tracer",
    "SpanEvent",
    "use_tracer",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "prometheus_text",
    "snapshot_registry",
    "write_prometheus",
    "RunManifest",
    "build_run_manifest",
    "git_revision",
    "MetricRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "log_buckets",
    "TelemetryServer",
    "TrainingProgress",
    "FlightRecorder",
    "use_flight_recorder",
]
