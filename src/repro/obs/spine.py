"""The telemetry spine: one record per instrumented site, four fixed views.

The paper argues through one breakdown (Figure 9: GNN processing vs graph
update), and live, post-hoc and at-failure views of it can only agree if
they derive from the same record.  So every instrumented site makes exactly
**one** call into this module: ``with span(site, **attrs):`` around an
interval, ``emit(site, n=1, **attrs)`` for an event.  The module owns the
one per-thread **open-interval stack** (a span's *self* time is its duration
minus its children's), the one ``perf_counter`` pair per interval, and the
**site table** :data:`SITES`.

Four projections are derived from each record, and only these four (there
is no sink registry: a fifth view is a change to this module):

1. the current device's **totals** (:class:`LiveTotals`, always on): self
   seconds per category, calls + inclusive seconds per site, event counters.
   Each thread writes its own cell and cells are summed on read, so the
   default path takes no lock.  Figure 9, ``repro_phase_seconds_total`` and
   the run manifest all read this one attribution.
2. the latency **histograms** in ``device.metrics`` (always on);
3. the event buffer of a :class:`~repro.obs.tracer.Tracer` installed with
   :func:`use_tracer`: spans also carry allocator bytes (``mem_bytes`` /
   ``mem_delta_bytes``) and the counters that moved on this thread over the
   span (``d_<counter>``);
4. the ring of a :class:`~repro.obs.flight.FlightRecorder` installed with
   :func:`use_flight_recorder`; sites on failure edges also drain it.

Installation is per thread; a worker is handed the starting thread's sinks
with :func:`installed` / :func:`use_installed` (the serving dispatcher is).
An interval closes when its ``with`` block exits, raising or not (a raising
body tags the record ``error=<ExcType>``); ``LiveTotals.reset()`` while an
interval is open discards that interval with the accounting it belonged to.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple

from repro.analysis.sanitizer import new_lock
from repro.obs.metrics import Histogram
from repro.obs.tracer import SpanEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.device.device import Device
    from repro.obs.flight import FlightRecorder
    from repro.obs.tracer import Tracer

__all__ = [
    "SITES",
    "PHASES",
    "COUNTERS",
    "Site",
    "Totals",
    "LiveTotals",
    "span",
    "emit",
    "open_span_count",
    "use_tracer",
    "use_flight_recorder",
    "installed",
    "use_installed",
]


# ---------------------------------------------------------------------------
# The site table
# ---------------------------------------------------------------------------
class Site(NamedTuple):
    """One row of the site table: what a record at this site feeds."""

    name: str
    cat: str  # category: where an interval's self time goes; a trace event's ``cat``
    counter: str | None = None  # event counter fed (``repro_events_total{event=...}``)
    #: Prometheus histogram family, its HELP text, the attrs that label a
    #: child, and non-default buckets.  Intervals observe their duration,
    #: events the attr named by ``value``.
    hist: str | None = None
    help: str = ""
    labels: tuple[str, ...] = ()
    value: str = "seconds"
    buckets: tuple[float, ...] | None = None
    flight: str | None = None  # flight-ring event kind; None stays out of the ring
    drain: str | None = None  # failure edges: the reason the record drains the ring with


#: Site names equal ``benchmarks/e2e/probe.py``'s where the site wraps the
#: same call, ``<probe layer>.<verb>`` otherwise.
_TABLE = (
    # -- training loop (train/trainer.py, train/checkpoint.py) -------------
    Site("train.epoch", "train"),
    Site("train.sequence", "train"),
    Site("train.timestamp", "train", hist="repro_timestamp_seconds",
         help="Per-timestamp executor latency (forward step incl. graph update).",
         labels=("engine",), flight="mark"),
    Site("tensor.backward", "train"),
    Site("tensor.optim_step", "optimizer", hist="repro_optimizer_step_seconds",
         help="Optimizer step latency."),
    Site("train.checkpoint_write", "train", hist="repro_checkpoint_write_seconds",
         help="Atomic training-checkpoint write latency.", flight="mark"),
    # -- executor and aggregation (core/executor.py, core/module.py) -------
    Site("core.begin_timestamp", "graph_update"),
    Site("core.begin_inference", "graph_update"),
    Site("core.backward_context", "graph_update"),
    Site("compiler.context", "graph_update"),
    Site("core.ctx_cache_hit", "graph_update", counter="ctx_cache_hits"),
    Site("core.ctx_cache_miss", "graph_update", counter="ctx_cache_misses"),
    Site("core.state_push", "stack"),
    Site("core.state_pop", "stack"),
    Site("core.engine_forward", "gnn"),
    Site("core.engine_backward", "gnn"),
    Site("core.kernel_retry", "fault", counter="kernel_retries", flight="counter"),
    Site("core.engine_fallback", "fault", counter="engine_fallbacks",
         flight="counter", drain="engine_fallback"),
    Site("core.abort_sequence", "fault", counter="sequence_aborts",
         flight="span", drain="abort_sequence"),
    # -- kernel launcher and plan cache ------------------------------------
    Site("device.kernel_launch", "gnn", hist="repro_kernel_launch_seconds",
         help="Per-launch kernel wall time by execution tier.", labels=("tier",)),
    Site("compiler.plan_build", "compile"),
    Site("compiler.lint_warning", "verify"),
    # -- graph objects (graph/) ----------------------------------------------
    Site("graph.preprocess", "preprocess"),
    Site("graph.position", "graph_update", hist="repro_graph_advance_seconds",
         help="GPMA temporal positioning (Get-Graph) latency."),
    Site("graph.build_snapshot", "graph_update", hist="repro_graph_rebuild_seconds",
         help="Snapshot rebuild (relabel + Algorithm 3) latency."),
    Site("graph.cache_state", "graph_update"),
    Site("graph.csr_cache_hits", "graph_update", counter="csr_cache_hits"),
    Site("graph.csr_cache_misses", "graph_update", counter="csr_cache_misses"),
    Site("graph.noop_updates_skipped", "graph_update", counter="noop_updates_skipped"),
    Site("graph.cache_fault_rebuilds", "fault", counter="cache_fault_rebuilds"),
    # -- injected faults, one site per kind (resilience/faults.py) ---------
    Site("fault.kernel", "fault", counter="faults_injected", flight="fault"),
    Site("fault.oom", "fault", counter="faults_injected", flight="fault"),
    Site("fault.cache", "fault", counter="faults_injected", flight="fault"),
    Site("fault.kill", "fault", counter="faults_injected", flight="fault",
         drain="simulated_kill"),
    Site("analysis.tsan_violation", "fault", flight="tsan"),
    # -- serving (serve/engine.py): request = queue wait + (ingest) +
    #    (forward) + row read ------------------------------------------------
    Site("serve.query", "serve", hist="repro_serve_request_seconds",
         help="Serving request latency (enqueue to response), by kind and source.",
         labels=("kind", "served_from")),
    Site("serve.queue_wait", "serve", hist="repro_serve_queue_wait_seconds",
         help="Serving queue wait (enqueue to dispatch, behind any ingest or batch ahead)."),
    Site("serve.ingest", "serve", hist="repro_serve_ingest_seconds",
         help="Update-batch ingest latency (append + position + invalidate)."),
    Site("serve.forward", "serve", hist="repro_serve_forward_seconds",
         help="Batched no-grad forward latency for serving compute batches."),
    Site("serve.row_read", "serve", hist="repro_serve_row_read_seconds",
         help="Row copy-out and client wake-up latency per served batch."),
    Site("serve.batch", "serve", hist="repro_serve_batch_size",
         help="Coalesced request-batch sizes.", value="size",
         buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)),
)

#: ``site name -> Site``; an unknown name is a ``KeyError`` at the call site.
SITES: dict[str, Site] = {site.name: site for site in _TABLE}

# site name -> its label values out of a record's attrs (a missing label is a
# KeyError), for the sites whose histogram is labelled
_LABEL_VALUES = {site.name: itemgetter(*site.labels) for site in _TABLE if site.labels}

#: The categories Figure 9 and ``repro_phase_seconds_total`` report: one-time
#: compilation, GNN kernel execution, dynamic-graph updates, preprocessing.
PHASES = ("compile", "gnn", "graph_update", "preprocess")

#: The event counters the table feeds: snapshot/context reuse plus the
#: resilience ladder (``repro_events_total{event=...}``, manifest counters).
COUNTERS = tuple(dict.fromkeys(site.counter for site in _TABLE if site.counter))


# ---------------------------------------------------------------------------
# Projection 1: device-scoped totals
# ---------------------------------------------------------------------------
_NO_CALLS = (0, 0.0)


@dataclass(frozen=True)
class Totals:
    """One read of a device's totals — the single attribution reports hold."""

    #: category -> self seconds (duration minus children), no double counting
    cat_seconds: dict[str, float] = field(default_factory=dict)
    #: site -> (calls, inclusive seconds); events count calls only
    site_totals: dict[str, tuple[int, float]] = field(default_factory=dict)
    #: event counter -> occurrences
    event_counts: dict[str, int] = field(default_factory=dict)

    def seconds(self, cat: str) -> float:
        """Self seconds of a category (0 if never entered)."""
        return self.cat_seconds.get(cat, 0.0)

    def calls(self, site: str) -> int:
        """Completed intervals (or emitted events) of a site."""
        return self.site_totals.get(site, _NO_CALLS)[0]

    def count(self, counter: str) -> int:
        """Occurrences of an event counter (0 if never emitted)."""
        return self.event_counts.get(counter, 0)

    def phase_seconds(self) -> dict[str, float]:
        """Self seconds of every Figure 9 phase (see :data:`PHASES`)."""
        return {phase: self.seconds(phase) for phase in PHASES}

    def counters(self) -> dict[str, int]:
        """Every framework event counter (see :data:`COUNTERS`), zeros included."""
        return {name: self.count(name) for name in COUNTERS}


class _Cell:
    """One thread's share of a device's totals; only that thread writes it."""

    __slots__ = ("gen", "seconds", "sites", "counters", "hists")

    def __init__(self) -> None:
        self.gen = 0
        self.clear()

    def clear(self) -> None:
        # Fresh dicts, not .clear(): a writer caught mid-update keeps the
        # discarded dict, and its update is discarded with it.
        self.seconds: dict[str, float] = {}
        self.sites: dict[str, tuple[int, float]] = {}
        self.counters: dict[str, int] = {}
        self.hists: dict[Any, Histogram] = {}


class LiveTotals:
    """A device's always-on totals, kept as per-thread cells summed on read.

    Cells are registered by object on a thread's first record (appended
    under the lock) and never keyed by ``threading.get_ident()``, which
    CPython reuses: a dead thread's share stays counted.
    """

    def __init__(self) -> None:
        self._lock = new_lock("LiveTotals._lock")
        self._cells: list[_Cell] = []
        self._tls = threading.local()

    def _cell(self) -> _Cell:
        try:
            cell: _Cell = self._tls.cell
        except AttributeError:
            cell = self._tls.cell = _Cell()
            with self._lock:
                self._cells.append(cell)
        return cell

    def read(self) -> Totals:
        """Sum every thread's cell (exact once writers are quiescent)."""
        with self._lock:
            cells = list(self._cells)
        seconds: dict[str, float] = {}
        sites: dict[str, tuple[int, float]] = {}
        counters: dict[str, int] = {}
        for cell in cells:
            for cat, own in dict(cell.seconds).items():
                seconds[cat] = seconds.get(cat, 0.0) + own
            for name, (calls, total) in dict(cell.sites).items():
                have = sites.get(name, _NO_CALLS)
                sites[name] = (have[0] + calls, have[1] + total)
            for name, n in dict(cell.counters).items():
                counters[name] = counters.get(name, 0) + n
        return Totals(seconds, sites, counters)

    def reset(self) -> None:
        """Zero every cell; intervals open across the reset are discarded."""
        with self._lock:
            for cell in self._cells:
                cell.gen += 1
                cell.clear()


# ---------------------------------------------------------------------------
# Per-thread state: the one open-interval stack and what is installed
# ---------------------------------------------------------------------------
class _Thread:
    __slots__ = ("open", "tracer", "recorder", "device", "cell")

    def __init__(self) -> None:
        self.open: list[span] = []
        self.tracer: "Tracer | None" = None
        self.recorder: "FlightRecorder | None" = None
        # the device last recorded into, and this thread's cell on it
        self.device: "Device | None" = None
        self.cell: _Cell | None = None


_tls = threading.local()


def _state() -> _Thread:
    try:
        state: _Thread = _tls.state
    except AttributeError:
        state = _tls.state = _Thread()
    return state


_device_module: Any = None


def _target(state: _Thread) -> tuple["Device", _Cell]:
    """The current device and the calling thread's totals cell on it."""
    global _device_module
    if _device_module is None:
        # Deferred: repro.device.device imports this package for its totals.
        import repro.device.device as module

        _device_module = module
    device: "Device" = _device_module.current_device()
    if state.device is not device:
        state.device = device
        state.cell = device.totals._cell()
    assert state.cell is not None
    return device, state.cell


def _hist_key(site: Site, attrs: dict[str, Any]) -> Any:
    """Cache key of the site's histogram child for a record's label values."""
    return (site.name, _LABEL_VALUES[site.name](attrs)) if site.labels else site.name


def _histogram(cell: _Cell, device: "Device", site: Site, key: Any, attrs: dict[str, Any]) -> Histogram:
    """The site's labelled histogram child, cached in the thread's cell."""
    child = cell.hists.get(key)
    if child is None:
        assert site.hist is not None
        family = device.metrics.histogram(site.hist, site.help, site.buckets)
        labelled = family.labels(**{label: str(attrs[label]) for label in site.labels})
        assert isinstance(labelled, Histogram)
        child = cell.hists[key] = labelled
    return child


def _to_flight(recorder: "FlightRecorder", site: Site, attrs: dict[str, Any]) -> None:
    if site.flight is not None:
        recorder.record(site.flight, site.name, **attrs)
        if site.drain is not None:
            recorder.drain(site.drain)


# ---------------------------------------------------------------------------
# The two calls sites make
# ---------------------------------------------------------------------------
class span:  # noqa: N801 - reads as a function at the call site
    """Time the ``with`` block as one interval of ``site``.

    The block's target is the attrs dict, for attrs only known at the end
    (``with span("x") as attrs: ...; attrs["rows"] = n``).
    """

    __slots__ = ("site", "attrs", "key", "start", "child", "state", "device", "cell", "gen",
                 "tracer", "mem", "counters")

    def __init__(self, site: str, **attrs: Any) -> None:
        row = self.site = SITES[site]
        self.attrs = attrs
        # label values are read here: a missing one fails at the call site, not at close
        self.key = _hist_key(row, attrs)
        self.child = 0.0

    def __enter__(self) -> dict[str, Any]:
        state = self.state = _state()
        self.device, cell = _target(state)
        self.cell = cell
        self.gen = cell.gen
        tracer = self.tracer = state.tracer
        if tracer is not None:
            self.mem = self.device.tracker.current_bytes
            self.counters = dict(cell.counters)
        state.open.append(self)
        self.start = perf_counter()
        return self.attrs

    def __exit__(self, exc_type: type[BaseException] | None, exc: object, tb: object) -> None:
        end = perf_counter()
        state = self.state
        stack = state.open
        stack.pop()
        dur = end - self.start
        if stack:
            stack[-1].child += dur
        site, attrs, cell = self.site, self.attrs, self.cell
        if exc_type is not None:
            attrs["error"] = exc_type.__name__
        if cell.gen == self.gen:
            own = dur - self.child
            if own > 0.0:
                cell.seconds[site.cat] = cell.seconds.get(site.cat, 0.0) + own
            calls, total = cell.sites.get(site.name, _NO_CALLS)
            cell.sites[site.name] = (calls + 1, total + dur)
            if site.hist is not None:
                _histogram(cell, self.device, site, self.key, attrs).observe(dur)
        if state.recorder is not None:
            _to_flight(state.recorder, site, attrs)
        tracer = self.tracer
        if tracer is not None:
            mem = self.device.tracker.current_bytes
            if mem != self.mem:
                attrs["mem_delta_bytes"] = mem - self.mem
            attrs["mem_bytes"] = mem
            for name, value in cell.counters.items():
                delta = value - self.counters.get(name, 0)
                if delta:
                    attrs[f"d_{name}"] = delta
            tracer.add(SpanEvent(
                site.name, site.cat, self.start - tracer.epoch, dur, len(stack), attrs, tracer.lane(),
            ))


def emit(site: str, n: int = 1, **attrs: Any) -> None:
    """Record ``n`` occurrences of the event ``site``."""
    row = SITES[site]
    state = _state()
    device, cell = _target(state)
    calls, total = cell.sites.get(site, _NO_CALLS)
    cell.sites[site] = (calls + n, total)
    if row.counter is not None:
        cell.counters[row.counter] = cell.counters.get(row.counter, 0) + n
    if row.hist is not None:
        _histogram(cell, device, row, _hist_key(row, attrs), attrs).observe(attrs[row.value])
    if n != 1:
        attrs["n"] = n
    if state.recorder is not None:
        _to_flight(state.recorder, row, attrs)
    tracer = state.tracer
    if tracer is not None:
        tracer.add(SpanEvent(
            site, row.cat, perf_counter() - tracer.epoch, None, len(state.open), attrs, tracer.lane(),
        ))


def open_span_count() -> int:
    """Intervals open on the *calling thread* (0 after any balanced — or
    failed — region)."""
    return len(_state().open)


# ---------------------------------------------------------------------------
# Installing projections 3 and 4 on a thread
# ---------------------------------------------------------------------------
def installed() -> tuple["Tracer | None", "FlightRecorder | None"]:
    """The (tracer, flight recorder) installed on the calling thread, each
    None when absent; also what a starting thread hands to a worker."""
    state = _state()
    return state.tracer, state.recorder


@contextmanager
def use_installed(sinks: tuple["Tracer | None", "FlightRecorder | None"]) -> Iterator[None]:
    """Run a block with another thread's :func:`installed` pair active."""
    state = _state()
    saved = state.tracer, state.recorder
    state.tracer, state.recorder = sinks
    try:
        yield
    finally:
        state.tracer, state.recorder = saved


@contextmanager
def use_tracer(tracer: "Tracer | None") -> Iterator["Tracer | None"]:
    """Run a block with ``tracer`` receiving this thread's records; ``None``
    keeps (or turns) tracing off for the block."""
    with use_installed((tracer, _state().recorder)):
        yield tracer


@contextmanager
def use_flight_recorder(recorder: "FlightRecorder | None") -> Iterator["FlightRecorder | None"]:
    """Run a block with ``recorder`` receiving this thread's ring events."""
    with use_installed((_state().tracer, recorder)):
        yield recorder
