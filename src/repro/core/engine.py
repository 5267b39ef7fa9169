"""Run time, separated: execution engines that launch compiled plans.

The compile-time half (:mod:`repro.compiler.plan`) produces an immutable
:class:`~repro.compiler.plan.ProgramPlan`; an :class:`ExecutionEngine` is
the run-time policy that executes one against a
:class:`~repro.compiler.runtime.GraphContext`.  An engine is three things:
``forward``, ``backward``, and ``fallback`` — the name of the engine an
aggregation degrades to when this one keeps faulting (``kernel ->
interpreter -> none``).  Two implementations ship:

* :class:`KernelEngine` — launches the plan's generated kernels through the
  device's :class:`~repro.device.kernel.KernelLauncher`: one launch per
  forward, one per backward.
* :class:`InterpreterEngine` — executes the plan's tensor IR directly via
  :mod:`repro.compiler.interp`, with no codegen and no kernel cache.  Same
  runtime primitives, same op order, so its outputs are *bitwise* identical
  to the kernel engine's — which makes the executor's engine the
  differential-testing switch: run any model under
  ``TemporalExecutor(graph, engine="interpreter")`` and compare.

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
from repro.compiler.runtime import GraphContext
from repro.device import current_device
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


class KernelEngine(ExecutionEngine):
    """Launches the plan's generated kernels through the device launcher."""

    name = "kernel"

    def forward(self, plan, ctx, env):
        """Launch the fused forward kernel."""
        return current_device().launcher.launch(plan.fwd_kernel, ctx, env)

    def backward(self, plan, ctx, g_out, saved):
        """Launch the fused backward kernel."""
        return current_device().launcher.launch(plan.bwd_kernel, ctx, g_out, saved)


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
    so a typo like ``"kernl"`` tells the caller what *is* available.
    """
    return name if isinstance(name, ExecutionEngine) else _ENGINES.get(name)


def available_engines() -> list[str]:
    """Names of all registered engines."""
    return _ENGINES.available()


register_engine("kernel", KernelEngine)
register_engine("interpreter", InterpreterEngine)
