"""Compile time, separated: the :class:`ProgramPlan` and the :class:`PlanCache`.

STGraph's pitch is compile-once/run-every-timestamp (paper §IV, Figure 1):
the vertex program is traced, differentiated, pruned, and lowered to one
fused forward and one fused backward kernel *once*, then launched across the
whole temporal sequence.  This module is the compile-time half of that split:

* :class:`ProgramPlan` — an immutable record of everything compilation
  produced for one vertex program: the traced vertex IR, the forward and
  backward tensor programs, the two compiled kernels, and the saved-state
  manifest the executor pushes onto the State Stack per timestamp.  It is
  the one compiled-program object: layers hold it as ``layer.program``, and
  its ``forward`` / ``backward`` bind features and run it on the engine the
  caller passes.  A plan owns no execution policy; engines
  (:mod:`repro.core.engine`) run plans.
* :class:`PlanCache` — a process-wide memo keyed by a content hash of
  (program signature, declared feature widths, grad features, state-stack
  mode) with hit/miss counters.  Every layer instance requests its plan
  here, so two instances of the same layer — or two different models
  sharing a vertex program, like the GCN gates inside TGCN/GConvGRU —
  compile exactly once per process.  :func:`compile_vertex_program` is the
  public way to request one.

All pipeline work (lower → passes → autodiff → passes → codegen → kernel compile)
is one ``compiler.plan_build`` interval (category ``compile``), so compile
cost is measurable and visibly amortized in Figure-9-style breakdowns.

Every build runs the compiler verifier (:mod:`repro.compiler.verify`)
before codegen: stage-algebra, SSA, gradient-completeness, ``F_b ⊆ F_f``
State-Stack safety, and write-hazard checks.  It is the one check of a
compiled program and it always runs.  Errors raise
:class:`~repro.compiler.diagnostics.VerifyError`, so a program that fails it
is never cached; the report of every built plan rides on it as
``plan.lint``, its warnings surface as ``compiler.lint_warning`` events, and
run manifests total them.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np

from repro.compiler.autodiff import build_backward
from repro.compiler.codegen import (
    compile_program,
    generate_backward_source,
    generate_forward_source,
)
from repro.compiler.diagnostics import LintReport
from repro.compiler.ir import VNode
from repro.compiler.lower import CompileError, lower_trace
from repro.compiler.passes import SavedAnalysis, cse, dce, fold_scales, saved_analysis
from repro.compiler.runtime import GraphContext
from repro.compiler.symbols import TraceResult, Vertex, trace
from repro.compiler.tir import TProgram
from repro.compiler.verify import run_verifier
from repro.device import current_device
from repro.device.kernel import CompiledKernel
from repro.obs.spine import emit, span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from repro.core.engine import ExecutionEngine

__all__ = [
    "ProgramPlan",
    "PlanCache",
    "plan_cache",
    "plan_key",
    "compile_vertex_program",
]


@dataclass(frozen=True)
class ProgramPlan:
    """Everything compile time produced for one vertex program.

    Immutable by construction: run time (``repro.core.engine``) only reads
    from a plan, so one plan can safely serve any number of layer instances,
    models, and executors concurrently.  ``name`` is the name of the first
    request that built the plan; structurally identical programs requested
    under other names share it.

    The per-call protocol matches the executor's State Stack discipline:
    ``forward(ctx, node_feats, edge_feats)`` returns ``(out, saved_env)``
    and the caller pushes ``saved_env`` (only the buffers the backward
    program reads, or every forward buffer under ``state_stack_opt=False``);
    ``backward(ctx, g_out, saved_env)`` returns gradients keyed by feature
    name, edge gradients in label order.  A node feature may be bound as a
    function of the context (GCN's ``norm``): each pass calls it with its own
    context, and ``saved_env`` holds the function, not its array.
    """

    plan_id: str
    name: str
    state_stack_opt: bool
    traced: TraceResult
    fwd_prog: TProgram
    bwd_prog: TProgram
    widths: Mapping[str, str]
    grad_map: Mapping[str, str]
    saved_spec: tuple[str, ...]
    analysis: SavedAnalysis
    #: forward input buffers declared differentiable (grad-completeness set)
    wrt: tuple[str, ...]
    fwd_kernel: CompiledKernel
    bwd_kernel: CompiledKernel
    #: the verifier's findings from the build (warnings only: errors raise)
    lint: LintReport

    # ------------------------------------------------------------------
    @property
    def forward_source(self) -> str:
        """The generated forward kernel's source text."""
        return self.fwd_kernel.source

    @property
    def backward_source(self) -> str:
        """The generated backward kernel's source text."""
        return self.bwd_kernel.source

    def _bind(self, ctx: GraphContext, node_feats, edge_feats) -> dict[str, np.ndarray]:
        env: dict[str, np.ndarray] = {}
        for buf, (kind, feat) in self.fwd_prog.inputs.items():
            if kind == "node":
                if feat not in node_feats:
                    raise KeyError(f"{self.name}: missing node feature {feat!r}")
                value = node_feats[feat]
                env[buf] = value(ctx) if callable(value) else value
            else:
                if edge_feats is None or feat not in edge_feats:
                    raise KeyError(f"{self.name}: missing edge feature {feat!r}")
                env[buf] = ctx.bind_edge_feature(edge_feats[feat])
        return env

    def forward(
        self,
        ctx: GraphContext,
        node_feats: Mapping[str, np.ndarray | Callable[[GraphContext], np.ndarray]],
        edge_feats: Mapping[str, np.ndarray] | None = None,
        engine: "ExecutionEngine | None" = None,
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Run the forward pass on ``engine`` (``None``: the kernel engine);
        returns ``(out, saved_env)``."""
        device = current_device()
        env = self._bind(ctx, node_feats, edge_feats)
        out, saved = _engine(engine).forward(self, ctx, env)
        device.alloc.adopt(np.asarray(out), tag="kernel.out")
        # A feature bound as a function of the context is saved as that
        # function: backward derives it again from its own context.
        for buf in saved.keys() & self.fwd_prog.inputs.keys():
            kind, feat = self.fwd_prog.inputs[buf]
            if kind == "node" and callable(node_feats[feat]):
                saved[buf] = node_feats[feat]
        return out, saved

    def backward(
        self,
        ctx: GraphContext,
        g_out: np.ndarray,
        saved: Mapping[str, np.ndarray],
        engine: "ExecutionEngine | None" = None,
    ) -> dict[str, np.ndarray]:
        """Run the backward pass on ``engine`` (``None``: the kernel engine);
        returns gradients keyed by feature name."""
        saved = {buf: value(ctx) if callable(value) else value for buf, value in saved.items()}
        grads_by_buf = _engine(engine).backward(self, ctx, g_out, saved)
        grads: dict[str, np.ndarray] = {}
        for buf, grad in grads_by_buf.items():
            kind, feat = self.fwd_prog.inputs[buf]
            if kind == "edge":
                grad = ctx.edge_grad_to_labels(np.asarray(grad))
            grads[feat] = grad
        return grads

    def describe(self) -> str:
        """Human-readable compilation report (IR + programs + saved set)."""
        sections = [
            f"== plan {self.plan_id} ==",
            f"== vertex IR ==\n{self.traced.root.pretty()}",
            f"== forward ==\n{self.fwd_prog.render()}",
            f"== backward ==\n{self.bwd_prog.render()}",
            f"== state stack ==\n{self.analysis.summary()}",
            f"== verifier ==\n{self.lint.render()}",
        ]
        return "\n\n".join(sections)


def _engine(engine: "ExecutionEngine | None") -> "ExecutionEngine":
    if engine is not None:
        return engine
    # Imported here: repro.core.engine imports this module.
    from repro.core.engine import ENGINES

    return ENGINES["kernel"]


def plan_key(
    signature: str,
    feature_widths: Mapping[str, str] | None,
    grad_features: Iterable[str] | None,
    state_stack_opt: bool,
) -> str:
    """Content hash identifying one compilation — the :class:`PlanCache` key.

    Stable across re-traces of structurally identical vertex functions
    (``signature`` is the vertex IR's structural identity, not the Python
    function object) and across process restarts.  The other components —
    declared widths, grad features, state-stack mode — each change generated
    code or saved-state shape, so each changes the key.  The display *name*
    deliberately does not participate: generated kernel entry points derive
    from the plan id, so structurally identical programs requested under
    different names (e.g. SAGE's neighbor mean and DCRNN's in-walk) share one
    plan.
    """
    grads = "all" if grad_features is None else tuple(sorted(grad_features))
    payload = repr(
        (
            signature,
            tuple(sorted((feature_widths or {}).items())),
            grads,
            bool(state_stack_opt),
        )
    )
    return "plan_" + hashlib.sha256(payload.encode()).hexdigest()[:16]


def _build_plan(
    traced: TraceResult,
    plan_id: str,
    feature_widths: Mapping[str, str] | None,
    grad_features: set[str] | None,
    name: str,
    state_stack_opt: bool,
) -> ProgramPlan:
    """The full pipeline: lower → cse/dce → scale fold → autodiff → cse/dce →
    verify → codegen → compile."""
    fwd_prog, widths = lower_trace(traced, dict(feature_widths or {}), name=name)
    cse(fwd_prog)
    dce(fwd_prog)

    if grad_features is None:
        wrt = set(fwd_prog.inputs)
    else:
        wrt = {
            buf
            for buf, (_kind, feat) in fwd_prog.inputs.items()
            if feat in grad_features
        }
        missing = grad_features - {feat for _, feat in fwd_prog.inputs.values()}
        if missing:
            raise CompileError(f"grad_features not read by the program: {sorted(missing)}")
    if fold_scales(fwd_prog, widths, wrt):
        dce(fwd_prog)
    bwd_result = build_backward(fwd_prog, widths, wrt=wrt)
    bwd_prog = bwd_result.prog
    cse(bwd_prog)
    dce(bwd_prog)
    # CSE/DCE may have dropped saved references; recompute.
    bwd_result.saved = [n for n, (k, _) in bwd_prog.inputs.items() if k == "saved"]
    grad_map = {
        inp: g for inp, g in bwd_result.grad_map.items() if g in set(bwd_prog.outputs)
    }
    analysis = saved_analysis(fwd_prog, bwd_prog)

    if state_stack_opt:
        saved_spec = tuple(bwd_result.saved)
    else:
        # Ablation: retain every forward buffer, like a backend without
        # the IR comparison (the bwd kernel reads a superset-compatible
        # dict, so correctness is unchanged).
        saved_spec = tuple(analysis.all_forward_buffers)

    # Verification runs before codegen: a plan that fails the stage-algebra,
    # SSA, grad-completeness, F_b ⊆ F_f, or write-hazard checks never
    # reaches the kernel compiler.  Warnings ride on the plan and surface
    # through any active tracer as `verify` instant events.
    lint = run_verifier(
        traced.root, fwd_prog, bwd_prog, grad_map, wrt, saved_spec,
        subject=name, analysis=analysis,
    )
    lint.raise_if_errors()
    if lint.warnings:
        _emit_lint_warnings(lint)

    # Entry points derive from the content hash, not the display name, so
    # the generated source of a cached plan is deterministic no matter which
    # layer requested the compilation first.
    fwd_src = generate_forward_source(fwd_prog, list(saved_spec), f"{plan_id}_fwd")
    bwd_src = generate_backward_source(bwd_prog, grad_map, f"{plan_id}_bwd")

    return ProgramPlan(
        plan_id=plan_id,
        name=name,
        state_stack_opt=state_stack_opt,
        traced=traced,
        fwd_prog=fwd_prog,
        bwd_prog=bwd_prog,
        widths=widths,
        grad_map=grad_map,
        saved_spec=saved_spec,
        analysis=analysis,
        wrt=tuple(sorted(wrt)),
        fwd_kernel=compile_program(fwd_src, f"{plan_id}_fwd"),
        bwd_kernel=compile_program(bwd_src, f"{plan_id}_bwd"),
        lint=lint,
    )


def _emit_lint_warnings(lint: LintReport) -> None:
    """Surface verifier warnings as ``compiler.lint_warning`` events."""
    for diag in lint.warnings:
        emit(
            "compiler.lint_warning",
            code=diag.code,
            program=diag.program or lint.subject,
            message=diag.message,
            where=diag.where,
        )


class PlanCache:
    """Process-wide memo of :class:`ProgramPlan` objects with hit/miss counters.

    A *hit* returns the cached plan after nothing more than a re-trace (the
    trace is how the structural key is computed; it is symbolic and cheap).
    A *miss* runs the full pipeline as one ``compiler.plan_build`` interval
    (category ``compile``).  Thread-safe, and ``_lock`` is a leaf: a build
    runs with no lock held.  The first request for a key registers a pending
    future and builds; concurrent requests for that key wait on the future
    (and count as hits), so each key still compiles once.  A failed build
    raises in every waiter and leaves nothing cached, so the next request
    builds again.
    """

    def __init__(self) -> None:
        self._plans: dict[str, ProgramPlan] = {}
        self._pending: dict[str, Future[ProgramPlan]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get_or_build(
        self,
        fn: Callable[[Vertex], VNode],
        feature_widths: Mapping[str, str] | None = None,
        grad_features: set[str] | None = None,
        name: str = "vertex_program",
        state_stack_opt: bool = True,
    ) -> ProgramPlan:
        """The cached plan for this compilation, building it on first request."""
        traced = trace(fn)
        key = plan_key(traced.signature(), feature_widths, grad_features, state_stack_opt)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                return plan
            pending = self._pending.get(key)
            if pending is not None:
                self.hits += 1
            else:
                self.misses += 1
                building = self._pending[key] = Future()
        if pending is not None:
            return pending.result()
        try:
            with span("compiler.plan_build", program=name):
                plan = _build_plan(
                    traced, key, feature_widths, grad_features, name, state_stack_opt
                )
        except BaseException as exc:
            with self._lock:
                del self._pending[key]
            building.set_exception(exc)
            raise
        with self._lock:
            self._plans[key] = plan
            del self._pending[key]
        building.set_result(plan)
        return plan

    def get(self, plan_id: str) -> ProgramPlan | None:
        """Cached plan by id, or None (does not count as a hit or miss)."""
        with self._lock:
            return self._plans.get(plan_id)

    def plans(self) -> list[ProgramPlan]:
        """All cached plans (snapshot), e.g. to inspect generated kernel source."""
        with self._lock:
            return list(self._plans.values())

    def stats(self) -> dict[str, int]:
        """Hit/miss counters and current size."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._plans)}

    def clear(self) -> None:
        """Drop every cached plan and reset counters (tests/benchmarks)."""
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


_PLAN_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    """The process-wide plan cache every layer compiles through."""
    return _PLAN_CACHE


def compile_vertex_program(
    fn: Callable[[Vertex], VNode],
    feature_widths: Mapping[str, str] | None = None,
    grad_features: set[str] | None = None,
    name: str = "vertex_program",
    state_stack_opt: bool = True,
) -> ProgramPlan:
    """Compile a vertex-centric function: the cached :class:`ProgramPlan`
    for it, built on the first request in this process."""
    return plan_cache().get_or_build(
        fn,
        feature_widths=feature_widths,
        grad_features=grad_features,
        name=name,
        state_stack_opt=state_stack_opt,
    )
