"""The compiled vertex program: the object layers hold and executors run.

Since the compile/run split, :class:`VertexProgram` is a thin facade over
two explicitly separated halves:

* **compile time** — an immutable :class:`~repro.compiler.plan.ProgramPlan`
  requested from the process-wide :func:`~repro.compiler.plan.plan_cache`,
  so structurally identical programs (same trace signature, widths, grad
  features and State-Stack mode) compile exactly once no matter how many
  layers, models, or runs request them;
* **run time** — an :class:`~repro.core.engine.ExecutionEngine` that
  launches the plan against a :class:`GraphContext`.  A program does not
  choose one: the :class:`~repro.core.executor.TemporalExecutor` running it
  passes its engine to every call (``None`` means the generated-kernel
  engine).

The per-call protocol matches the executor's State Stack discipline:

* ``forward(ctx, node_feats, edge_feats)`` returns ``(out, saved_env)``;
  the caller pushes ``saved_env`` (only the buffers the backward program
  needs — or everything, when compiled with ``state_stack_opt=False`` for
  the ablation) onto the State Stack.
* ``backward(ctx, g_out, saved_env)`` returns gradients keyed by feature
  name (edge gradients converted back to label order).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.compiler.ir import VNode
from repro.compiler.plan import ProgramPlan, plan_cache
from repro.compiler.runtime import GraphContext
from repro.compiler.symbols import Vertex
from repro.device import current_device

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from repro.core.engine import ExecutionEngine

__all__ = ["VertexProgram", "compile_vertex_program"]


def _resolve(engine: "ExecutionEngine | None") -> "ExecutionEngine":
    if engine is not None:
        return engine
    # Imported here: repro.core imports this module at package-import time.
    from repro.core.engine import get_engine

    return get_engine()


class VertexProgram:
    """A compiled vertex-centric GNN aggregation: a cached plan and a name."""

    def __init__(
        self,
        fn: Callable[[Vertex], VNode],
        feature_widths: Mapping[str, str] | None = None,
        grad_features: set[str] | None = None,
        name: str = "vertex_program",
        state_stack_opt: bool = True,
    ) -> None:
        self.plan: ProgramPlan = plan_cache().get_or_build(
            fn,
            feature_widths=feature_widths,
            grad_features=grad_features,
            name=name,
            state_stack_opt=state_stack_opt,
        )
        self.name = name

    # ------------------------------------------------------------------
    # Plan delegation (the long-standing public surface)
    # ------------------------------------------------------------------
    @property
    def plan_id(self) -> str:
        """The plan's content-hash identity in the process-wide cache."""
        return self.plan.plan_id

    @property
    def traced(self):
        """The traced vertex IR."""
        return self.plan.traced

    @property
    def fwd_prog(self):
        """The forward tensor program."""
        return self.plan.fwd_prog

    @property
    def bwd_prog(self):
        """The backward tensor program."""
        return self.plan.bwd_prog

    @property
    def analysis(self):
        """The saved-tensor analysis (State Stack manifest)."""
        return self.plan.analysis

    @property
    def grad_map(self):
        """Input buffer → gradient buffer map of the backward program."""
        return self.plan.grad_map

    @property
    def _widths(self):
        """Inferred buffer widths (kept under the historical name)."""
        return self.plan.widths

    @property
    def fwd_kernel(self):
        """The fused forward kernel."""
        return self.plan.fwd_kernel

    @property
    def bwd_kernel(self):
        """The fused backward kernel."""
        return self.plan.bwd_kernel

    @property
    def forward_source(self) -> str:
        """The generated forward kernel's source text."""
        return self.plan.forward_source

    @property
    def backward_source(self) -> str:
        """The generated backward kernel's source text."""
        return self.plan.backward_source

    @property
    def saved_spec(self) -> list[str]:
        """Buffer names pushed to the State Stack per timestamp."""
        return list(self.plan.saved_spec)

    def required_features(self) -> tuple[set[str], set[str]]:
        """(node feature names, edge feature names) the program reads."""
        return self.plan.required_features()

    # ------------------------------------------------------------------
    def _bind(self, ctx: GraphContext, node_feats, edge_feats) -> dict[str, np.ndarray]:
        env: dict[str, np.ndarray] = {}
        for buf, (kind, feat) in self.plan.fwd_prog.inputs.items():
            if kind == "node":
                if feat not in node_feats:
                    raise KeyError(f"{self.name}: missing node feature {feat!r}")
                env[buf] = node_feats[feat]
            else:
                if edge_feats is None or feat not in edge_feats:
                    raise KeyError(f"{self.name}: missing edge feature {feat!r}")
                env[buf] = ctx.bind_edge_feature(edge_feats[feat])
        return env

    def forward(
        self,
        ctx: GraphContext,
        node_feats: Mapping[str, np.ndarray],
        edge_feats: Mapping[str, np.ndarray] | None = None,
        engine: "ExecutionEngine | None" = None,
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Run the forward pass on ``engine`` (``None``: the kernel engine);
        returns ``(out, saved_env)``."""
        device = current_device()
        env = self._bind(ctx, node_feats, edge_feats)
        out, saved = _resolve(engine).forward(self.plan, ctx, env)
        device.alloc.adopt(np.asarray(out), tag="kernel.out")
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
        grads_by_buf = _resolve(engine).backward(self.plan, ctx, g_out, saved)
        grads: dict[str, np.ndarray] = {}
        for buf, grad in grads_by_buf.items():
            kind, feat = self.plan.fwd_prog.inputs[buf]
            if kind == "edge":
                grad = ctx.edge_grad_to_labels(np.asarray(grad))
            grads[feat] = grad
        return grads

    def describe(self) -> str:
        """Human-readable compilation report (IR + programs + saved set)."""
        return self.plan.describe()


def compile_vertex_program(
    fn: Callable[[Vertex], VNode],
    feature_widths: Mapping[str, str] | None = None,
    grad_features: set[str] | None = None,
    name: str = "vertex_program",
    state_stack_opt: bool = True,
) -> VertexProgram:
    """Compile a vertex-centric function through the plan cache; see
    :class:`VertexProgram`."""
    return VertexProgram(
        fn,
        feature_widths=feature_widths,
        grad_features=grad_features,
        name=name,
        state_stack_opt=state_stack_opt,
    )
