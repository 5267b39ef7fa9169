"""Compile time, separated: the :class:`ProgramPlan` and the :class:`PlanCache`.

STGraph's pitch is compile-once/run-every-timestamp (paper §IV, Figure 1):
the vertex program is traced, differentiated, fused, and lowered to kernels
*once*, then launched across the whole temporal sequence.  This module is
the compile-time half of that split:

* :class:`ProgramPlan` — an immutable record of everything compilation
  produced for one vertex program: the traced vertex IR, the forward and
  backward tensor programs, the compiled kernels (fused or per-op), and the
  saved-state manifest the executor pushes onto the State Stack per
  timestamp.  A plan owns no execution policy; engines
  (:mod:`repro.core.engine`) run plans.
* :class:`PlanCache` — a process-wide memo keyed by a content hash of
  (program signature, declared feature widths, grad features, fusion mode,
  state-stack mode, optimization mode, dtype, graph mutability class) with
  hit/miss counters.  Every layer instance requests its plan here, so two
  instances of the same layer — or two different models sharing a vertex
  program, like the GCN gates inside TGCN/GConvGRU — compile exactly once
  per process.

All pipeline work (lower → autodiff → passes → codegen → kernel compile)
is one ``compiler.plan_build`` interval (category ``compile``), so compile
cost is measurable and visibly amortized in Figure-9-style breakdowns.

Every build also runs the compiler verifier (:mod:`repro.compiler.verify`)
before codegen: stage-algebra, SSA, gradient-completeness, ``F_b ⊆ F_f``
State-Stack safety, and write-hazard checks.  Errors raise
:class:`~repro.compiler.diagnostics.VerifyError`; warnings ride on the plan
(``plan.lint``), surface as ``verify`` instant events on an active tracer,
and are totalled in run manifests.  ``REPRO_VERIFY=0`` or
:func:`~repro.compiler.verify.set_verification` is the escape hatch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.analysis.sanitizer import new_rlock
from repro.compiler.autodiff import build_backward
from repro.compiler.codegen import (
    compile_program,
    generate_backward_source,
    generate_forward_source,
    generate_op_kernels,
)
from repro.compiler.diagnostics import LintReport
from repro.compiler.ir import VNode
from repro.compiler.lower import CompileError, lower_trace
from repro.compiler.passes import SavedAnalysis, cse, dce, saved_analysis
from repro.compiler.symbols import TraceResult, Vertex, trace
from repro.compiler.tir import TOp, TProgram
from repro.compiler.verify import run_verifier, verification_enabled
from repro.device.kernel import CompiledKernel
from repro.obs.spine import emit, span

__all__ = [
    "ProgramPlan",
    "PlanCache",
    "plan_cache",
    "plan_key",
]


@dataclass(frozen=True)
class ProgramPlan:
    """Everything compile time produced for one vertex program.

    Immutable by construction: run time (``repro.core.engine``) only reads
    from a plan, so one plan can safely serve any number of layer instances,
    models, and executors concurrently.
    """

    plan_id: str
    name: str
    fused: bool
    state_stack_opt: bool
    optimize: bool
    dtype: str
    graph_class: str
    traced: TraceResult
    fwd_prog: TProgram
    bwd_prog: TProgram
    widths: Mapping[str, str]
    grad_map: Mapping[str, str]
    saved_spec: tuple[str, ...]
    analysis: SavedAnalysis
    #: forward input buffers declared differentiable (grad-completeness set)
    wrt: tuple[str, ...] = ()
    fwd_kernel: CompiledKernel | None = None
    bwd_kernel: CompiledKernel | None = None
    fwd_op_kernels: tuple[tuple[TOp, CompiledKernel], ...] | None = None
    bwd_op_kernels: tuple[tuple[TOp, CompiledKernel], ...] | None = None
    #: verifier findings from the build (None when verification was disabled)
    lint: LintReport | None = None

    # ------------------------------------------------------------------
    @property
    def forward_source(self) -> str:
        """The generated forward kernel's source text."""
        if self.fused:
            return self.fwd_kernel.source
        return "\n".join(k.source for _, k in self.fwd_op_kernels)

    @property
    def backward_source(self) -> str:
        """The generated backward kernel's source text."""
        if self.fused:
            return self.bwd_kernel.source
        return "\n".join(k.source for _, k in self.bwd_op_kernels)

    def required_features(self) -> tuple[set[str], set[str]]:
        """(node feature names, edge feature names) the program reads."""
        node, edge = set(), set()
        for kind, feat in self.fwd_prog.inputs.values():
            (node if kind == "node" else edge).add(feat)
        return node, edge

    def describe(self) -> str:
        """Human-readable compilation report (IR + programs + saved set)."""
        sections = [
            f"== plan {self.plan_id} ==",
            f"== vertex IR ==\n{self.traced.root.pretty()}",
            f"== forward ==\n{self.fwd_prog.render()}",
            f"== backward ==\n{self.bwd_prog.render()}",
            f"== state stack ==\n{self.analysis.summary()}",
        ]
        if self.lint is not None:
            sections.append(f"== verifier ==\n{self.lint.render()}")
        return "\n\n".join(sections)


def plan_key(
    signature: str,
    feature_widths: Mapping[str, str] | None,
    grad_features: Iterable[str] | None,
    fused: bool,
    state_stack_opt: bool,
    optimize: bool,
    dtype: str = "float32",
    graph_class: str = "any",
) -> str:
    """Content hash identifying one compilation — the :class:`PlanCache` key.

    Stable across re-traces of structurally identical vertex functions
    (``signature`` is the vertex IR's structural identity, not the Python
    function object) and across process restarts.  Any component that changes
    generated code or saved-state shape — fusion mode, state-stack mode,
    optimization mode, declared widths, grad features — changes the key, as
    do the declared specialization attributes (``dtype``, ``graph_class``).
    The display *name* deliberately does not participate: generated kernel
    entry points derive from the plan id, so structurally identical programs
    requested under different names (e.g. SAGE's neighbor mean and DCRNN's
    in-walk) share one plan.
    """
    grads = "all" if grad_features is None else tuple(sorted(grad_features))
    payload = repr(
        (
            signature,
            tuple(sorted((feature_widths or {}).items())),
            grads,
            bool(fused),
            bool(state_stack_opt),
            bool(optimize),
            str(dtype),
            str(graph_class),
        )
    )
    return "plan_" + hashlib.sha256(payload.encode()).hexdigest()[:16]


#: verification results by plan content hash; survives plan-cache clears
#: (soundness: the verifier's inputs are deterministic functions of the key)
_VERIFY_MEMO: dict[str, LintReport] = {}


def _build_plan(
    traced: TraceResult,
    plan_id: str,
    feature_widths: Mapping[str, str] | None,
    grad_features: set[str] | None,
    name: str,
    fused: bool,
    state_stack_opt: bool,
    optimize: bool,
    dtype: str,
    graph_class: str,
) -> ProgramPlan:
    """The full pipeline: lower → autodiff → passes → codegen → compile."""
    fwd_prog, widths = lower_trace(traced, dict(feature_widths or {}), name=name)
    if optimize:
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
    bwd_result = build_backward(fwd_prog, widths, wrt=wrt)
    bwd_prog = bwd_result.prog
    if optimize:
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
    # through any active tracer as `verify` instant events.  Like the kernel
    # launcher's source dedup, the result is memoized by content hash across
    # plan-cache clears: every verifier input is a deterministic function of
    # the plan key, so a re-verification can never disagree with the first.
    lint: LintReport | None = None
    if verification_enabled():
        lint = _VERIFY_MEMO.get(plan_id)
        if lint is None:
            lint = run_verifier(
                traced.root, fwd_prog, bwd_prog, grad_map, wrt, saved_spec,
                subject=name, analysis=analysis,
            )
            _VERIFY_MEMO[plan_id] = lint
        lint.raise_if_errors()
        if lint.warnings:
            _emit_lint_warnings(lint)

    # Entry points derive from the content hash, not the display name, so
    # the generated source of a cached plan is deterministic no matter which
    # layer requested the compilation first.
    fwd_kernel = bwd_kernel = None
    fwd_op_kernels = bwd_op_kernels = None
    if fused:
        fwd_src = generate_forward_source(fwd_prog, list(saved_spec), f"{plan_id}_fwd")
        fwd_kernel = compile_program(fwd_src, f"{plan_id}_fwd")
        bwd_src = generate_backward_source(bwd_prog, grad_map, f"{plan_id}_bwd")
        bwd_kernel = compile_program(bwd_src, f"{plan_id}_bwd")
    else:
        fwd_op_kernels = tuple(generate_op_kernels(fwd_prog, f"{plan_id}_fwd"))
        bwd_op_kernels = tuple(generate_op_kernels(bwd_prog, f"{plan_id}_bwd"))

    return ProgramPlan(
        plan_id=plan_id,
        name=name,
        fused=fused,
        state_stack_opt=state_stack_opt,
        optimize=optimize,
        dtype=dtype,
        graph_class=graph_class,
        traced=traced,
        fwd_prog=fwd_prog,
        bwd_prog=bwd_prog,
        widths=widths,
        grad_map=grad_map,
        saved_spec=saved_spec,
        analysis=analysis,
        wrt=tuple(sorted(wrt)),
        fwd_kernel=fwd_kernel,
        bwd_kernel=bwd_kernel,
        fwd_op_kernels=fwd_op_kernels,
        bwd_op_kernels=bwd_op_kernels,
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
    (category ``compile``).  Thread-safe; the lock is held across builds so concurrent
    requests for the same key compile once.
    """

    def __init__(self) -> None:
        self._plans: dict[str, ProgramPlan] = {}
        self._lock = new_rlock("PlanCache._lock")
        self.hits = 0
        self.misses = 0

    def get_or_build(
        self,
        fn: Callable[[Vertex], VNode],
        feature_widths: Mapping[str, str] | None = None,
        grad_features: set[str] | None = None,
        name: str = "vertex_program",
        fused: bool = True,
        state_stack_opt: bool = True,
        optimize: bool = True,
        dtype: str = "float32",
        graph_class: str = "any",
    ) -> ProgramPlan:
        """The cached plan for this compilation, building it on first request."""
        traced = trace(fn)
        key = plan_key(
            traced.signature(),
            feature_widths,
            grad_features,
            fused,
            state_stack_opt,
            optimize,
            dtype,
            graph_class,
        )
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                return plan
            self.misses += 1
            with span("compiler.plan_build", program=name):
                plan = _build_plan(
                    traced,
                    key,
                    feature_widths,
                    grad_features,
                    name,
                    fused,
                    state_stack_opt,
                    optimize,
                    dtype,
                    graph_class,
                )
            self._plans[key] = plan
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
