"""The Temporally-aware Executor (paper Figure 1/2, Algorithm 1).

The executor sits between the model and the graph object:

* **forward** (``begin_timestamp``) — positions the graph at ``t`` via
  ``Get-Graph`` (Algorithm 2 for GPMA), pushes ``t`` onto the Graph Stack
  for dynamic graphs, and prepares the :class:`GraphContext` kernels run
  against; each aggregation then pushes its pruned saved-state onto the
  State Stack.
* **backward** — driven by the tensor engine's reverse sweep: the first
  gradient arriving for timestamp ``t`` pops the Graph Stack, repositions
  the graph via ``Get-Backward-Graph`` and rebuilds the context; each
  aggregation pops its own State Stack entry.

**Context reuse: the one snapshot store.**  Preparing a
:class:`GraphContext` (CSR views, label permutations) is structural work
billed to ``graph_update``, and a training sequence visits every snapshot
twice — forward, then again on the LIFO backward walk.  Contexts are
therefore kept in a small LRU keyed by the graph's ``snapshot_key()`` (its
snapshot-version content identity): a backward step whose key matches the
forward pass's build reuses that context outright instead of blindly
rebuilding, and a no-op update batch (which leaves the version untouched)
even reuses the previous timestamp's context.  A context carries both CSRs,
the degrees and its aggregation operators, and graphs keep no build (serving's
live graph keeps only the arrays its one context holds), so this LRU is the
one store of built snapshots: a context miss is exactly one
``graph.snapshot()`` call, one build (or, on the live graph, one patch).
``ctx_cache_size`` is its one capacity, and 0 switches it off.  A static
graph takes the same path: its key is always 0, so its one context is built
on the first step and hit on every later one, and ``is_dynamic`` gates only
the Graph Stack push and pop (Algorithm 1, line 3).
See ``docs/EXECUTOR.md`` for the lifecycle rules.

Every instrumented step here is one call into the telemetry spine
(:mod:`repro.obs.spine`): positioning (``core.begin_timestamp`` /
``core.begin_inference`` / ``core.backward_context``) and context
preparation (``compiler.context``) are ``graph_update`` intervals, each
aggregation is one ``gnn`` interval (its kernel launch, or
``core.interpret`` on the interpreter engine), and the device totals of
those two categories are Figure 9's two-way split.  The State Stack writes
no record of its own: the trainer puts its running total on each
``train.timestamp`` (``state_bytes=``).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.compiler.runtime import GraphContext
from repro.core.engine import ENGINES, ExecutionEngine
from repro.core.stacks import GraphStack, StateStack
from repro.graph.base import STGraphBase
from repro.obs.spine import emit, span
from repro.tensor.tensor import is_grad_enabled

__all__ = ["NoGradTimestampError", "TemporalExecutor"]


class NoGradTimestampError(RuntimeError):
    """``begin_timestamp`` while grad is disabled: the Graph Stack entry it
    would push has no backward pass to pop it (use ``begin_inference``)."""


class TemporalExecutor:
    """Orchestrates snapshots and saved state across a training sequence.

    The executor owns no compilation state: layers hold immutable
    :class:`~repro.compiler.plan.ProgramPlan` references from the process-wide
    plan cache, and the executor only supplies run-time structure (contexts,
    stacks) and the execution engine.  ``engine`` is the one place an engine
    is chosen: every aggregation run through this executor uses it, e.g.
    ``engine="interpreter"`` runs a whole model on the tensor-IR interpreter
    for differential testing.  ``engine`` is a name in
    :data:`~repro.core.engine.ENGINES` or an instance; an unknown name is a
    ``KeyError`` naming both engines.  Tests may assign ``executor.engine``
    (an :class:`ExecutionEngine`) between runs.
    """

    def __init__(
        self,
        graph: STGraphBase,
        engine: str | ExecutionEngine = "kernel",
        ctx_cache_size: int = 4,
    ) -> None:
        self.graph = graph
        if isinstance(engine, str):
            if engine not in ENGINES:
                raise KeyError(
                    f"unknown engine {engine!r}; available engines: {', '.join(sorted(ENGINES))}"
                )
            engine = ENGINES[engine]
        self.engine: ExecutionEngine = engine
        self.state_stack = StateStack()
        self.graph_stack = GraphStack()
        self._fwd_ctx: GraphContext | None = None
        self._fwd_t: int | None = None
        self._bwd_ctx: GraphContext | None = None
        self._bwd_t: int | None = None
        # snapshot_key() -> GraphContext LRU; capacity 0 disables it.
        self.ctx_cache_size = int(ctx_cache_size)
        self._ctx_cache: OrderedDict[int, GraphContext] = OrderedDict()
        self.ctx_cache_hits = 0
        self.ctx_cache_misses = 0
        # Degradation-ladder accounting (repro.core.module increments these):
        # kernel launches retried after an injected fault, and aggregations
        # that fell back to the interpreter engine.
        self.kernel_retries = 0
        self.engine_fallbacks = 0
        self.sequence_aborts = 0

    def _context_for_current(self) -> GraphContext:
        """Context for the graph's current snapshot, via the keyed LRU.

        The key is the graph's snapshot-version content identity, so the
        backward walk reuses the forward pass's context and no-op update
        batches reuse the previous timestamp's — replacing the old blind
        ``_bwd_ctx`` invalidation on every ``begin_timestamp``.
        """
        if self.ctx_cache_size > 0:
            key = self.graph.snapshot_key()
            ctx = self._ctx_cache.get(key)
            if ctx is not None:
                self._ctx_cache.move_to_end(key)
                self.ctx_cache_hits += 1
                emit("core.ctx_cache_hit")
                return ctx
            # Evict before building, so a full store never holds the
            # superseded build through the new one.
            while len(self._ctx_cache) >= self.ctx_cache_size:
                self._ctx_cache.popitem(last=False)
        # Context preparation (CSR views, label permutations) is structural
        # work — part of the snapshot cost Figure 9 bills to graph updates.
        with span("compiler.context"):
            ctx = GraphContext(self.graph)
        if self.ctx_cache_size > 0:
            self.ctx_cache_misses += 1
            emit("core.ctx_cache_miss")
            self._ctx_cache[ctx.snapshot_key] = ctx
        return ctx

    # ------------------------------------------------------------------
    # Forward side
    # ------------------------------------------------------------------
    def begin_timestamp(self, t: int) -> GraphContext:
        """Get-Graph(G, t) + Graph Stack push; returns the kernel context.

        Only a dynamic graph pushes (Algorithm 1, line 3).  A recorded
        forward is the only one a backward pass pops, so this refuses to run
        while grad is disabled (:class:`NoGradTimestampError`): a no-grad
        rollout positions with :meth:`begin_inference`.
        """
        t = int(t)
        if not is_grad_enabled():
            raise NoGradTimestampError(
                f"begin_timestamp({t}) under no_grad(): no backward pass will pop "
                f"its Graph Stack entry; position a no-grad forward with begin_inference({t})"
            )
        with span("core.begin_timestamp", t=t):
            self.graph.get_graph(t)  # a refused t raises here, before anything moves
            # A fresh forward ends any in-flight backward positioning, and
            # nothing reads either previous context through the build, so
            # neither pointer keeps one alive there; the contexts themselves
            # stay reusable through the keyed cache.
            self._fwd_ctx = self._bwd_ctx = None
            self._bwd_t = None
            if self.graph.is_dynamic:
                self.graph_stack.push(t)
            self._fwd_t = t
            self._fwd_ctx = self._context_for_current()
        return self._fwd_ctx

    def begin_inference(self, t: int) -> GraphContext:
        """Position for a read-only (serving) forward at timestamp ``t``.

        Like :meth:`begin_timestamp` but with **no Graph-Stack push**: a
        serving forward runs under ``no_grad()``, so no backward pass will
        ever pop the stack, and leaving entries behind would trip
        :meth:`check_drained`.  Positioning still goes through
        ``Get-Graph`` and the keyed context LRU, so repeated inference at an
        unchanged snapshot version reuses the cached CSR artifacts and
        context with zero Algorithm-3 rebuilds — the read-mostly fast path
        ``repro.serve`` batches queries onto (docs/SERVING.md).
        """
        t = int(t)
        with span("core.begin_inference", t=t):
            self.graph.get_graph(t)  # a refused t raises here, before anything moves
            # Nothing reads the previous context through the build, so the
            # pointer does not keep it alive there.
            self._fwd_ctx = None
            self._fwd_t = t
            self._fwd_ctx = self._context_for_current()
        return self._fwd_ctx

    def current_context(self) -> GraphContext:
        """The context prepared by the last ``begin_timestamp``."""
        if self._fwd_ctx is None:
            raise RuntimeError(
                "no active forward context: begin_timestamp() was never "
                "called (or the executor was reset)"
            )
        return self._fwd_ctx

    @property
    def current_timestamp(self) -> int | None:
        """The timestamp of the current forward position."""
        return self._fwd_t

    def end_sequence_forward(self) -> None:
        """Hook at the end of a sequence's forward pass: lets GPMA cache the
        snapshot so the next sequence starts with one update batch
        (Algorithm 2 lines 1-5/10)."""
        cache = getattr(self.graph, "cache_snapshot", None)
        if cache is not None:
            cache()

    # ------------------------------------------------------------------
    # Saved state
    # ------------------------------------------------------------------
    def push_state(self, saved: dict[str, np.ndarray], tag: str = "") -> int:
        """Push one aggregation's pruned saved state for the current timestamp."""
        assert self._fwd_t is not None, "push_state outside a timestamp"
        return self.state_stack.push(self._fwd_t, saved, tag)

    def pop_state(self, token: int) -> dict[str, np.ndarray]:
        """Pop a saved-state entry by its token (LIFO-checked)."""
        return self.state_stack.pop(token)

    # ------------------------------------------------------------------
    # Backward side
    # ------------------------------------------------------------------
    def backward_context(self, t: int) -> GraphContext:
        """Context for a backward step at timestamp ``t``.

        The first request for ``t`` pops the Graph Stack on a dynamic graph
        (which must yield exactly ``t`` — LIFO) and calls
        ``Get-Backward-Graph``; subsequent aggregations of the same
        timestamp reuse the context.
        """
        t = int(t)
        if self._bwd_t == t and self._bwd_ctx is not None:
            return self._bwd_ctx
        with span("core.backward_context", t=t):
            if self.graph.is_dynamic:
                popped = self.graph_stack.pop()
                if popped != t:
                    raise RuntimeError(
                        f"graph stack LIFO violation: popped timestamp {popped}, "
                        f"backward requested {t}"
                    )
            self.graph.get_backward_graph(t)
            self._bwd_ctx = self._context_for_current()
            self._bwd_t = t
        return self._bwd_ctx

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear stacks and positioning (between epochs / after an aborted
        sequence).

        Both the forward and backward context pointers are dropped — a
        surviving ``_fwd_ctx`` would let ``current_context()`` silently
        return a context positioned at a dead timestamp from the aborted
        sequence.  The keyed context cache is content-addressed, so it stays
        valid and is kept.
        """
        self.state_stack.clear()
        self.graph_stack.clear()
        self._fwd_ctx = None
        self._fwd_t = None
        self._bwd_ctx = None
        self._bwd_t = None

    def abort_sequence(self) -> None:
        """Exception-safe unwinding after a mid-sequence failure.

        A fault escaping the sequence body (allocator OOM, a kernel fault
        that exhausted the degradation ladder, a simulated kill) leaves
        partially pushed State/Graph Stacks and a context positioned at a
        dead timestamp.  This drains both stacks and drops the positioning
        so :meth:`check_drained` passes and the next sequence starts clean;
        the content-addressed context LRU stays valid and is kept.
        """
        dropped_state = len(self.state_stack)
        dropped_graph = len(self.graph_stack)
        self.reset()
        self.sequence_aborts += 1
        # A mid-sequence teardown is exactly the incident window the flight
        # recorder exists for: the site's table row drains the ring.
        emit("core.abort_sequence", dropped_state=dropped_state, dropped_graph=dropped_graph)

    def check_drained(self) -> None:
        """Assert both stacks emptied — i.e. forward/backward were balanced."""
        if not self.state_stack.is_empty:
            raise RuntimeError(f"state stack not drained: {len(self.state_stack)} entries left")
        if not self.graph_stack.is_empty:
            raise RuntimeError(f"graph stack not drained: {len(self.graph_stack)} entries left")

    def stats(self) -> dict[str, int | str]:
        """Peak stack depths/bytes, push counts, engine name, and
        context-store counters."""
        return {
            "engine": self.engine.name,
            "state_stack_peak_depth": self.state_stack.peak_depth,
            "state_stack_peak_bytes": self.state_stack.peak_bytes,
            "state_stack_pushes": self.state_stack.total_pushes,
            "graph_stack_peak_depth": self.graph_stack.peak_depth,
            "ctx_cache_hits": self.ctx_cache_hits,
            "ctx_cache_misses": self.ctx_cache_misses,
            "kernel_retries": self.kernel_retries,
            "engine_fallbacks": self.engine_fallbacks,
            "sequence_aborts": self.sequence_aborts,
        }
