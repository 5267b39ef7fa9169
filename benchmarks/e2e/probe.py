"""Span recorder that times each layer of ``repro`` from outside the program.

The benchmark must not move when the program's own telemetry
(``repro.obs.Tracer``, ``Profiler``, ``MetricRegistry``) is rewritten, so
nothing here reads it.  :func:`installed` wraps the public entry points of
every layer (the ``SITES`` table) with a wrapper that appends one span
``(site, start, end, parent, weight)`` to a per-thread list, and restores
the originals on exit.  :func:`summarize` turns the spans into per-site
call counts and *self* times: a span's duration minus the spans it directly
caused on the same thread.

Importing this module imports nothing from ``repro``; the targets are
resolved when :func:`installed` is entered.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["SITES", "SpanRecorder", "SiteTotals", "installed", "self_times", "summarize", "site_spans"]

#: Every wrapped site, ``layer.name``, in reporting order.
SITES: tuple[str, ...] = (
    "pma.insert_batch", "pma.delete_batch", "pma.export_items",
    "graph.advance", "graph.cache_state", "graph.build_snapshot", "graph.reverse_csr",
    "graph.get_graph", "graph.get_backward_graph", "graph.append_update", "graph.k_hop",
    "compiler.context", "compiler.plan_build",
    "core.begin_timestamp", "core.backward_context", "core.begin_inference",
    "core.engine_forward", "core.engine_backward", "core.state_push", "core.state_pop",
    "device.kernel_launch",
    "tensor.op_forward", "tensor.backward", "tensor.optim_step", "tensor.zero_grad",
    "train.epoch", "nn.model_step",
    "serve.query", "serve.enqueue_update",
)
_SITE_ID = {name: i for i, name in enumerate(SITES)}

#: Sites whose span weight is the number of keys in the batch argument.
_KEYED_SITES = ("pma.insert_batch", "pma.delete_batch")

# (site id, start, end, parent index in the same thread's list or -1, weight)
Span = tuple[int, float, float, int, int]


@dataclass
class ThreadSpans:
    """The spans one thread recorded, in the order they were opened."""

    name: str
    spans: list[Span | None] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)


class SpanRecorder:
    """In-memory span store; one list per thread, no lock on the hot path."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.threads: list[ThreadSpans] = []

    def _thread(self) -> ThreadSpans:
        state = ThreadSpans(threading.current_thread().name)
        self._tls.state = state
        with self._lock:
            self.threads.append(state)
        return state

    def wrap(self, site: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that every call records one span for ``site``."""
        site_id = _SITE_ID[site]
        keyed = site in _KEYED_SITES
        tls = self._tls
        new_thread = self._thread
        clock = time.perf_counter

        def probe_wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                state = tls.state
            except AttributeError:
                state = new_thread()
            spans, stack = state.spans, state.stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # args[0] is the PMA, args[1] the key batch
                weight = len(args[1]) if keyed and len(args) > 1 else 0
                spans[index] = (site_id, start, end, parent, weight)

        probe_wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return probe_wrapper


# ---------------------------------------------------------------------------
# Installing and restoring the wrappers
# ---------------------------------------------------------------------------
#: ``(site, module, class, method)`` for every wrapped method.
_METHOD_TARGETS = (
    ("pma.insert_batch", "repro.pma", "PackedMemoryArray", "insert_batch"),
    ("pma.delete_batch", "repro.pma", "PackedMemoryArray", "delete_batch"),
    ("pma.export_items", "repro.pma", "PackedMemoryArray", "export_items"),
    ("graph.advance", "repro.graph.snapshot_builder", "UpdateCursor", "advance"),
    ("graph.cache_state", "repro.graph.snapshot_builder", "UpdateCursor", "cache_state"),
    ("graph.append_update", "repro.graph.dtdg", "DTDG", "append_update"),
    ("compiler.context", "repro.compiler.runtime", "GraphContext", "__init__"),
    ("compiler.plan_build", "repro.compiler.plan", "PlanCache", "get_or_build"),
    ("core.begin_timestamp", "repro.core.executor", "TemporalExecutor", "begin_timestamp"),
    ("core.backward_context", "repro.core.executor", "TemporalExecutor", "backward_context"),
    ("core.begin_inference", "repro.core.executor", "TemporalExecutor", "begin_inference"),
    ("core.state_push", "repro.core.executor", "TemporalExecutor", "push_state"),
    ("core.state_pop", "repro.core.executor", "TemporalExecutor", "pop_state"),
    ("device.kernel_launch", "repro.device.kernel", "KernelLauncher", "launch"),
    ("tensor.op_forward", "repro.tensor.ops", "Function", "apply"),
    ("tensor.backward", "repro.tensor.tensor", "Tensor", "backward"),
    ("tensor.zero_grad", "repro.tensor.optim", "Optimizer", "zero_grad"),
    ("train.epoch", "repro.train.trainer", "STGraphTrainer", "train_epoch"),
    ("serve.query", "repro.serve.engine", "InferenceEngine", "query"),
    ("serve.enqueue_update", "repro.serve.engine", "InferenceEngine", "enqueue_update"),
)

#: ``(module, base class, {method: site})``: the method is wrapped on every
#: subclass that defines it, whichever graph classes, engines, optimizers
#: and task models exist at the commit being measured.
_SUBCLASS_TARGETS = (
    ("repro.graph.base", "STGraphBase",
     {"get_graph": "graph.get_graph", "get_backward_graph": "graph.get_backward_graph"}),
    ("repro.core.engine", "ExecutionEngine",
     {"forward": "core.engine_forward", "backward": "core.engine_backward"}),
    ("repro.tensor.optim", "Optimizer", {"step": "tensor.optim_step"}),
    ("repro.tensor.nn", "Module", {"step": "nn.model_step"}),
)

#: ``(site, defining module, function)`` for every wrapped module-level function.
_FUNCTION_TARGETS = (
    ("graph.build_snapshot", "repro.graph.snapshot_builder", "build_snapshot_arrays"),
    ("graph.reverse_csr", "repro.graph.reverse", "reverse_gpma_vectorized"),
    ("graph.k_hop", "repro.graph.dirty", "k_hop_neighborhood"),
)


def _lookup(module_name: str, attr: str) -> Any:
    """``module.attr``, or None when a later commit moved or deleted it."""
    try:
        return getattr(importlib.import_module(module_name), attr, None)
    except ImportError:
        return None


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _wrap_attribute(recorder: SpanRecorder, site: str, raw: Any) -> Any:
    if isinstance(raw, classmethod):
        return classmethod(recorder.wrap(site, raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(recorder.wrap(site, raw.__func__))
    return recorder.wrap(site, raw)


@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[list[str]]:
    """Wrap every site for the duration of the block, then restore.

    Methods are replaced on their class.  A module-level function is
    rebound under every name in every loaded ``repro`` module that holds
    the original object, because ``from m import f`` copies the reference.
    Yields the sites that no longer resolve at this commit; they record
    nothing, and the report names them.
    """
    undo: list[tuple[Any, str, Any]] = []  # (namespace owner, attribute, original)
    found: set[str] = set()

    def replace(owner: Any, attr: str, site: str) -> None:
        raw = vars(owner)[attr]
        undo.append((owner, attr, raw))
        setattr(owner, attr, _wrap_attribute(recorder, site, raw))
        found.add(site)

    try:
        for site, module_name, class_name, attr in _METHOD_TARGETS:
            cls = _lookup(module_name, class_name)
            if cls is not None and attr in vars(cls):
                replace(cls, attr, site)
        for module_name, class_name, methods in _SUBCLASS_TARGETS:
            base = _lookup(module_name, class_name)
            for cls in _subclasses(base) if base is not None else ():
                for attr, site in methods.items():
                    if attr in vars(cls) and not getattr(vars(cls)[attr], "__isabstractmethod__", False):
                        replace(cls, attr, site)
        for site, module_name, attr in _FUNCTION_TARGETS:
            original = _lookup(module_name, attr)
            if original is None:
                continue
            wrapper = recorder.wrap(site, original)
            found.add(site)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        yield [site for site in SITES if site not in found]
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
@dataclass
class SiteTotals:
    """What one site did inside the summarized window."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    weight: int = 0


def self_times(spans: list[Span | None]) -> list[float]:
    """Self time per span of one thread: duration minus its direct children.

    Only same-thread spans are children, so time a span spends blocked on
    another thread stays in its own self time.
    """
    out = [0.0 if s is None else s[2] - s[1] for s in spans]
    for span in spans:
        if span is not None and span[3] >= 0:
            out[span[3]] -= span[2] - span[1]
    return out


def summarize(
    recorder: SpanRecorder, start: float, end: float, threads: Callable[[str], bool] = lambda name: True
) -> dict[str, SiteTotals]:
    """Per-site totals over the spans opened in ``[start, end]``.

    ``threads`` selects which threads count, by thread name.  Spans still
    open when the recorder was read are ignored.
    """
    totals = {site: SiteTotals() for site in SITES}
    for state in list(recorder.threads):
        if not threads(state.name):
            continue
        spans = list(state.spans)
        for span, own in zip(spans, self_times(spans)):
            if span is None or span[1] < start or span[1] > end:
                continue
            entry = totals[SITES[span[0]]]
            entry.calls += 1
            entry.self_s += own
            entry.total_s += span[2] - span[1]
            entry.weight += span[4]
    return totals


def site_spans(recorder: SpanRecorder, site: str, thread_name: str | None = None) -> list[tuple[str, float, float]]:
    """``(thread name, start, end)`` of every finished span of ``site``, by start time."""
    site_id = _SITE_ID[site]
    found = [
        (state.name, span[1], span[2])
        for state in list(recorder.threads)
        if thread_name is None or state.name == thread_name
        for span in list(state.spans)
        if span is not None and span[0] == site_id
    ]
    return sorted(found, key=lambda item: item[1])
