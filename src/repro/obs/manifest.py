"""Self-describing run manifests.

A ``BENCH_*.json`` row (or a one-off ``repro train`` run) is only comparable
across PRs if it records *what* ran: which revision, which compiled plans,
which dataset/graph kind, and which cache configuration.  The
:class:`RunManifest` bundles that provenance with one read of the device
totals (per-phase and per-category self seconds, reuse counters, calls +
seconds per site) and the memory watermarks — one JSON file written next to
the trace, so a trajectory of benchmark results is self-describing without
consulting git history.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.device.device import Device

__all__ = ["RunManifest", "build_run_manifest", "git_revision"]

_SCHEMA_VERSION = 1


def git_revision(cwd: str | None = None) -> str | None:
    """The current git commit hash, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


@dataclass
class RunManifest:
    """Provenance + aggregate record of one bench/train run."""

    schema_version: int = _SCHEMA_VERSION
    created_unix: float = 0.0
    git_rev: str | None = None
    run_name: str = ""
    command: str = ""
    #: "stgraph" | "pygt" | "naive" | "gpma" | ...
    system: str = ""
    dataset: str = ""
    #: "static" | "naive" | "gpma" — STGraphBase.graph_type
    graph_kind: str = ""
    #: snapshot/reuse cache configuration in effect for the run
    cache_config: dict[str, Any] = field(default_factory=dict)
    #: content-hash ids of every plan in the process-wide plan cache
    plan_ids: list[str] = field(default_factory=list)
    plan_cache_stats: dict[str, int] = field(default_factory=dict)
    #: verifier warnings across all cached plans, keyed by STG0xx code
    #: (builds with errors never produce a plan, so only warnings appear)
    lint_warnings: dict[str, int] = field(default_factory=dict)
    #: one read of the device totals: self seconds per Figure 9 phase and
    #: per category, event counters, calls + inclusive seconds per site
    phase_seconds: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    span_seconds: dict[str, float] = field(default_factory=dict)
    span_calls: dict[str, dict] = field(default_factory=dict)
    peak_memory_bytes: int = 0
    current_memory_bytes: int = 0
    peak_memory_by_tag: dict[str, int] = field(default_factory=dict)
    kernel_launches: int = 0
    #: resilience record: planned faults that fired (by kind), kernel-launch
    #: retries, interpreter-engine fallbacks, and the checkpoint this run
    #: resumed from (None for a fresh run) — see docs/RESILIENCE.md
    faults_injected: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    engine_fallbacks: int = 0
    resumed_from: str | None = None
    #: events captured by the run's flight recorder (0 when none was armed)
    #: and how many times its ring was drained to a ``flight.jsonl`` window
    flight_recorder_events: int = 0
    flight_recorder_drains: int = 0
    #: free-form per-run results (losses, epoch times, figure params)
    results: dict[str, Any] = field(default_factory=dict)
    #: serving-layer record (``repro serve`` / ServingHarness runs): the
    #: ServingReport row plus the engine's reuse counters — empty for
    #: train/bench runs.  See docs/SERVING.md.
    serving: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict."""
        return asdict(self)

    def write(self, path: str) -> str:
        """Write the manifest as JSON to ``path``; returns the path."""
        parent = os.path.dirname(os.path.abspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        """Read a manifest back (unknown keys from future schemas ignored)."""
        with open(path) as fh:
            data = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def build_run_manifest(
    device: "Device",
    graph: Any | None = None,
    run_name: str = "",
    command: str = "",
    system: str = "",
    dataset: str = "",
    results: dict[str, Any] | None = None,
    resumed_from: str | None = None,
    serving: dict[str, Any] | None = None,
) -> RunManifest:
    """Collect a :class:`RunManifest` from the live device and graph.

    ``graph`` (any :class:`~repro.graph.base.STGraphBase`) contributes the
    graph kind and the snapshot-cache configuration; the process-wide plan
    cache contributes the plan ids a future reader can match against
    ``docs/COMPILER.md`` §7 cache keys.  Every telemetry field is a view of
    one ``device.totals.read()``.
    """
    from repro.compiler.plan import plan_cache
    from repro.obs.spine import installed
    from repro.resilience.faults import current_injector

    cache = plan_cache()
    totals = device.totals.read()
    _, recorder = installed()
    lint_warnings: dict[str, int] = {}
    for plan in cache.plans():
        if plan.lint is None:
            continue
        for diag in plan.lint.warnings:
            lint_warnings[diag.code] = lint_warnings.get(diag.code, 0) + 1
    manifest = RunManifest(
        created_unix=time.time(),
        git_rev=git_revision(),
        run_name=run_name,
        command=command,
        system=system,
        dataset=dataset,
        plan_ids=sorted(p.plan_id for p in cache.plans()),
        plan_cache_stats=cache.stats(),
        lint_warnings=lint_warnings,
        phase_seconds={k: round(v, 6) for k, v in totals.phase_seconds().items()},
        counters=totals.counters(),
        span_seconds={k: round(v, 6) for k, v in totals.cat_seconds.items()},
        span_calls={
            name: {"calls": calls, "seconds": round(seconds, 6)}
            for name, (calls, seconds) in totals.site_totals.items()
        },
        peak_memory_bytes=device.tracker.peak_bytes,
        current_memory_bytes=device.tracker.current_bytes,
        peak_memory_by_tag={t or "untagged": b for t, b in sorted(device.tracker.peak_bytes_by_tag().items())},
        kernel_launches=totals.calls("device.kernel_launch"),
        faults_injected=current_injector().faults_injected(),
        retries=totals.count("kernel_retries"),
        engine_fallbacks=totals.count("engine_fallbacks"),
        resumed_from=resumed_from,
        flight_recorder_events=recorder.total_recorded if recorder is not None else 0,
        flight_recorder_drains=recorder.drain_count() if recorder is not None else 0,
        results=dict(results or {}),
        serving=dict(serving or {}),
    )
    if graph is not None:
        manifest.graph_kind = getattr(graph, "graph_type", "")
        manifest.cache_config = {"enable_cache": getattr(graph, "enable_cache", None)}
    return manifest
