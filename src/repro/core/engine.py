"""Run time, separated: execution engines that launch compiled plans.

The compile-time half (:mod:`repro.compiler.plan`) produces an immutable
:class:`~repro.compiler.plan.ProgramPlan`; an :class:`ExecutionEngine` is
the run-time policy that executes one against a
:class:`~repro.compiler.runtime.GraphContext`.  An engine is three things:
``forward``, ``backward``, and ``fallback`` — the name of the engine an
aggregation degrades to when this one keeps faulting (``kernel ->
interpreter -> none``).  Two implementations ship:

* :class:`KernelEngine` — launches the plan's generated kernels through the
  device's :class:`~repro.device.kernel.KernelLauncher` (fused single-launch
  or per-op launches for the fusion ablation), recording the
  feature-adaptive launch configuration exactly as before.
* :class:`InterpreterEngine` — executes the plan's tensor IR directly via
  :mod:`repro.compiler.interp`, with no codegen and no kernel cache.  Same
  runtime primitives, same op order, so its outputs are *bitwise* identical
  to the kernel engine's — which makes engine selection per plan the
  differential-testing switch: run any model under ``engine="interpreter"``
  and compare.

Engines are stateless and registered through the same
:class:`~repro.util.registry.Registry` as deep-learning backends
(:mod:`repro.core.backend`): ``get_engine("kernel")``.
"""

from __future__ import annotations

import abc
from typing import Callable, Mapping

import numpy as np

from repro.compiler.interp import trace_execution
from repro.compiler.plan import ProgramPlan
from repro.compiler.tir import IMPLICIT_ONES
from repro.compiler.runtime import GraphContext
from repro.device import current_device, feature_adaptive_config
from repro.util.registry import Registry

__all__ = [
    "ExecutionEngine",
    "KernelEngine",
    "InterpreterEngine",
    "register_engine",
    "get_engine",
    "available_engines",
]


class ExecutionEngine(abc.ABC):
    """Run-time policy for executing a compiled :class:`ProgramPlan`.

    Engines are stateless: all compilation artifacts live on the plan, all
    per-snapshot structure on the context, and all per-call data in ``env``.
    ``env`` maps the plan's input *buffer* names to bound arrays (the
    feature-name → buffer binding is the caller's job, see
    :meth:`VertexProgram.forward <repro.compiler.program.VertexProgram>`).
    """

    name: str = "abstract"
    #: engine to degrade to after a retry on this one faults again (None: none)
    fallback: str | None = "interpreter"

    @abc.abstractmethod
    def forward(
        self, plan: ProgramPlan, ctx: GraphContext, env: Mapping[str, np.ndarray]
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Execute the forward program; returns ``(out, saved_env)``."""

    @abc.abstractmethod
    def backward(
        self,
        plan: ProgramPlan,
        ctx: GraphContext,
        g_out: np.ndarray,
        saved: Mapping[str, np.ndarray],
    ) -> dict[str, np.ndarray]:
        """Execute the backward program; returns gradients keyed by input buffer."""


def _launch_config(ctx: GraphContext, env: Mapping[str, np.ndarray]):
    """Feature-adaptive launch shape (Seastar's heuristic), recorded on the
    kernel for inspection; the simulated device executes the same math
    regardless, but the configuration model is preserved."""
    feature_size = 1
    for arr in env.values():
        if getattr(arr, "ndim", 0) == 2:
            feature_size = max(feature_size, arr.shape[1])
    return feature_adaptive_config(max(1, ctx.num_nodes), feature_size)


class KernelEngine(ExecutionEngine):
    """Launches the plan's generated kernels through the device launcher."""

    name = "kernel"

    def forward(self, plan, ctx, env):
        """Launch the fused forward kernel (or each op kernel in order)."""
        device = current_device()
        if plan.fused:
            plan.fwd_kernel.meta["launch_config"] = _launch_config(ctx, env)
            return device.launcher.launch(plan.fwd_kernel, ctx, env)
        env = dict(env)
        for op, kernel in plan.fwd_op_kernels:
            args = [env[n] for n in op.ins if n != IMPLICIT_ONES]
            env[op.out] = device.launcher.launch(kernel, ctx, *args)
        for buf, value in plan.fwd_prog.consts.items():
            env.setdefault(buf, value)
        out = env[plan.fwd_prog.outputs[0]]
        saved = {name: env[name] for name in plan.saved_spec}
        return out, saved

    def backward(self, plan, ctx, g_out, saved):
        """Launch the fused backward kernel (or each op kernel in order)."""
        device = current_device()
        if plan.fused:
            return device.launcher.launch(plan.bwd_kernel, ctx, g_out, saved)
        env: dict[str, np.ndarray] = {"g_out": g_out}
        for name, (kind, _) in plan.bwd_prog.inputs.items():
            if kind == "saved":
                env[name] = saved[name]
        for buf, value in plan.bwd_prog.consts.items():
            env[buf] = value
        for op, kernel in plan.bwd_op_kernels:
            args = [env[n] for n in op.ins if n != IMPLICIT_ONES]
            env[op.out] = device.launcher.launch(kernel, ctx, *args)
        return {inp: env[g] for inp, g in plan.grad_map.items()}


class InterpreterEngine(ExecutionEngine):
    """Executes the plan's tensor IR directly — the differential-test oracle.

    No codegen, no ``exec``, no kernel launches; op-by-op evaluation against
    the same runtime primitives the generated kernels call, so any
    disagreement with :class:`KernelEngine` is by construction a codegen bug.
    """

    name = "interpreter"
    fallback = None

    def forward(self, plan, ctx, env):
        """Interpret the forward tensor program op by op."""
        full = trace_execution(plan.fwd_prog, ctx, env)
        out = full[plan.fwd_prog.outputs[0]]
        saved = {name: full[name] for name in plan.saved_spec}
        return out, saved

    def backward(self, plan, ctx, g_out, saved):
        """Interpret the backward tensor program op by op."""
        bindings: dict[str, np.ndarray] = {}
        for buf, (kind, _) in plan.bwd_prog.inputs.items():
            if kind == "saved":
                bindings[buf] = saved[buf]
            elif kind == "grad":
                bindings[buf] = g_out
        env = trace_execution(plan.bwd_prog, ctx, bindings)
        return {inp: env[g] for inp, g in plan.grad_map.items()}


_ENGINES: Registry[ExecutionEngine] = Registry("engine")


def register_engine(name: str, factory: Callable[[], ExecutionEngine]) -> None:
    """Register an engine factory under ``name`` (identical re-registration
    is a no-op, a different factory for a taken name raises ``ValueError``)."""
    _ENGINES.register(name, factory)


def get_engine(name: str | ExecutionEngine = "kernel") -> ExecutionEngine:
    """Instantiate (once) and return the named engine; instances pass through.

    Unknown names raise a ``KeyError`` that lists :func:`available_engines`,
    so a typo like ``--engine kernl`` tells the user what *is* available
    (the CLI turns this into a clean non-zero exit, not a traceback).
    """
    return name if isinstance(name, ExecutionEngine) else _ENGINES.get(name)


def available_engines() -> list[str]:
    """Names of all registered engines."""
    return _ENGINES.available()


register_engine("kernel", KernelEngine)
register_engine("interpreter", InterpreterEngine)
