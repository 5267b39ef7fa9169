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
the degrees and its aggregation operators, so this LRU is the only
multi-entry store of built snapshots (a graph keeps just the build it
exposes); ``ctx_cache_size`` is its one capacity, and 0 switches it off.
See ``docs/EXECUTOR.md`` for the lifecycle rules.

Every instrumented step here is one call into the telemetry spine
(:mod:`repro.obs.spine`): positioning (``core.begin_timestamp`` /
``core.begin_inference`` / ``core.backward_context``) and context
preparation (``compiler.context``) are ``graph_update`` intervals, the
aggregations in ``repro.core.module`` are ``gnn`` intervals, and the device
totals of those two categories are Figure 9's two-way split.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.compiler.runtime import GraphContext
from repro.core.engine import ExecutionEngine, get_engine
from repro.core.stacks import GraphStack, StateStack
from repro.graph.base import STGraphBase
from repro.obs.spine import emit, span

__all__ = ["TemporalExecutor"]


class TemporalExecutor:
    """Orchestrates snapshots and saved state across a training sequence.

    The executor owns no compilation state: layers hold immutable
    :class:`~repro.compiler.plan.ProgramPlan` references from the process-wide
    plan cache, and the executor only supplies run-time structure (contexts,
    stacks) and the execution engine.  ``engine`` is the one place an engine
    is chosen: every aggregation run through this executor uses it, e.g.
    ``engine="interpreter"`` runs a whole model on the tensor-IR interpreter
    for differential testing.  Tests may assign ``executor.engine`` (an
    :class:`ExecutionEngine`) between runs.
    """

    def __init__(
        self,
        graph: STGraphBase,
        engine: str | ExecutionEngine = "kernel",
        ctx_cache_size: int = 4,
    ) -> None:
        self.graph = graph
        self.engine: ExecutionEngine = get_engine(engine)
        self.state_stack = StateStack()
        self.graph_stack = GraphStack()
        self._fwd_ctx: GraphContext | None = None
        self._fwd_t: int | None = None
        self._bwd_ctx: GraphContext | None = None
        self._bwd_t: int | None = None
        self._static_ctx: GraphContext | None = None
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
        # Context preparation (CSR views, label permutations) is structural
        # work — part of the snapshot cost Figure 9 bills to graph updates.
        with span("compiler.context"):
            ctx = GraphContext(self.graph)
        if self.ctx_cache_size > 0:
            self.ctx_cache_misses += 1
            emit("core.ctx_cache_miss")
            self._ctx_cache[ctx.snapshot_key] = ctx
            while len(self._ctx_cache) > self.ctx_cache_size:
                self._ctx_cache.popitem(last=False)
        return ctx

    # ------------------------------------------------------------------
    # Forward side
    # ------------------------------------------------------------------
    def begin_timestamp(self, t: int) -> GraphContext:
        """Get-Graph(G, t) + Graph Stack push; returns the kernel context."""
        t = int(t)
        if not self.graph.is_dynamic:
            if self._static_ctx is None:
                self.graph.get_graph(t)
                self._static_ctx = GraphContext(self.graph)
            self._fwd_t = t
            self._fwd_ctx = self._static_ctx
            return self._fwd_ctx
        with span("core.begin_timestamp", t=t):
            self.graph.get_graph(t)
            self.graph_stack.push(t)
            self._fwd_t = t
            self._fwd_ctx = self._context_for_current()
        # A fresh forward ends any in-flight backward positioning; the
        # contexts themselves stay reusable through the keyed cache.
        self._bwd_ctx = None
        self._bwd_t = None
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
        if not self.graph.is_dynamic:
            if self._static_ctx is None:
                self.graph.get_graph(t)
                self._static_ctx = GraphContext(self.graph)
            self._fwd_t = t
            self._fwd_ctx = self._static_ctx
            return self._fwd_ctx
        with span("core.begin_inference", t=t):
            self.graph.get_graph(t)
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
        token = self.state_stack.push(self._fwd_t, saved, tag)
        emit(
            "core.state_push",
            tag=tag, t=self._fwd_t,
            bytes=self.state_stack.last_push_bytes,
            total_bytes=self.state_stack.current_bytes(),
            depth=len(self.state_stack),
        )
        return token

    def pop_state(self, token: int) -> dict[str, np.ndarray]:
        """Pop a saved-state entry by its token (LIFO-checked)."""
        saved = self.state_stack.pop(token)
        emit(
            "core.state_pop",
            bytes=self.state_stack.last_pop_bytes,
            total_bytes=self.state_stack.current_bytes(),
            depth=len(self.state_stack),
        )
        return saved

    # ------------------------------------------------------------------
    # Backward side
    # ------------------------------------------------------------------
    def backward_context(self, t: int) -> GraphContext:
        """Context for a backward step at timestamp ``t``.

        For dynamic graphs the first request for ``t`` pops the Graph Stack
        (which must yield exactly ``t`` — LIFO) and calls
        ``Get-Backward-Graph``; subsequent aggregations of the same
        timestamp reuse the rebuilt context.
        """
        t = int(t)
        if not self.graph.is_dynamic:
            assert self._static_ctx is not None
            return self._static_ctx
        if self._bwd_t == t and self._bwd_ctx is not None:
            return self._bwd_ctx
        with span("core.backward_context", t=t):
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
