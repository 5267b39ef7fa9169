"""Wiring compiled vertex programs into the tensor engine's autodiff.

:class:`_GraphAggregationTape` is the custom autograd node: its forward runs
the generated forward kernel and pushes the *pruned* saved-state onto the
executor's State Stack (instead of holding it in the tape, as every other op
does); its backward pops the State Stack, asks the executor for the correct
backward snapshot context (Graph Stack / Get-Backward-Graph), and runs the
generated backward kernel.  This is the precise point where the paper's
"temporally-aware executor" meets the deep-learning backend while staying
backend-agnostic — the tape node only uses the generic tape protocol.

:class:`VertexCentricLayer` is the base class for STGraph's GNN layers: it
requests its :class:`~repro.compiler.plan.ProgramPlan` from the process-wide
plan cache (so identical layers share one compilation) and exposes
``aggregate`` to subclasses.  Every aggregation runs on the executor's
engine; the executor is the one place an engine is chosen.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.compiler.program import VertexProgram, compile_vertex_program
from repro.compiler.runtime import GraphContext
from repro.core.engine import ExecutionEngine, get_engine
from repro.core.executor import TemporalExecutor
from repro.obs.spine import emit, span
from repro.resilience.faults import InjectedKernelFault
from repro.tensor import nn
from repro.tensor.ops import Function
from repro.tensor.tensor import Tensor

__all__ = ["VertexCentricLayer", "graph_aggregate"]


def _differential_check(
    program: VertexProgram,
    engine: ExecutionEngine,
    call,
    result,
    direction: str,
) -> None:
    """Compare a retried kernel execution against the interpreter oracle.

    The interpreter runs the same op order over the same primitives, so any
    difference is bitwise-detectable and means the retried launch produced
    corrupt output rather than a clean recovery.
    """
    if engine.name == "interpreter":
        return  # the result *is* the oracle
    oracle = call(get_engine("interpreter"))
    if direction == "fwd":
        ok = np.array_equal(np.asarray(result[0]), np.asarray(oracle[0]))
    else:
        ok = set(result) == set(oracle) and all(
            np.array_equal(np.asarray(result[k]), np.asarray(oracle[k])) for k in result
        )
    if not ok:
        raise RuntimeError(
            f"differential check failed after kernel retry: {program.name} "
            f"({direction}) disagrees with the interpreter oracle"
        )


def _resilient_run(
    executor: TemporalExecutor,
    program: VertexProgram,
    engine: ExecutionEngine,
    call,
    direction: str,
    timestamp: int,
):
    """Run ``call(engine)`` under the engine degradation ladder.

    An :class:`~repro.resilience.faults.InjectedKernelFault` triggers
    exactly one retry on the current engine; if the retry faults too, the
    aggregation follows each engine's ``fallback`` (kernel → interpreter →
    none) until an engine completes (engines are bitwise-identical by
    construction, so training continues unperturbed).  A retry that
    *succeeds* is differentially checked against the interpreter oracle
    before its result is trusted.  Returns ``(result, engine_used)`` so the
    tape can pin backward to the engine forward actually ran on.
    """
    try:
        return call(engine), engine
    except InjectedKernelFault:
        executor.kernel_retries += 1
        emit("core.kernel_retry", program=program.name, dir=direction, t=timestamp)
        try:
            result = call(engine)
        except InjectedKernelFault as exc:
            last_fault = exc
            fallback = engine
            while fallback.fallback is not None:
                fallback = get_engine(fallback.fallback)
                executor.engine_fallbacks += 1
                # A ladder step is a failure edge worth a full window dump:
                # the site's table row records the step, then drains the ring.
                emit(
                    "core.engine_fallback",
                    program=program.name, dir=direction, t=timestamp, engine=fallback.name,
                )
                try:
                    return call(fallback), fallback
                except InjectedKernelFault as exc:
                    last_fault = exc
            raise last_fault
        _differential_check(program, engine, call, result, direction)
        return result, engine


class _GraphAggregationTape(Function):
    """Autograd tape node for one compiled aggregation at one timestamp.

    A :class:`~repro.tensor.ops.Function` node like any other op (it links
    to the nodes that produced its inputs, never to the input tensors), but
    its saved state lives on the executor's State Stack rather than in
    ``saved``: the feature matrix ``h`` it aggregated is not retained.  The
    engine the forward ran on is pinned so forward and backward of one
    aggregation always execute on the same engine (``None``: the kernel
    engine).
    """

    def __init__(
        self,
        program: VertexProgram,
        executor: TemporalExecutor,
        timestamp: int,
        tensor_slots: list[tuple[str, str]],
        engine: ExecutionEngine | None = None,
    ) -> None:
        super().__init__()
        self.program = program
        self.executor = executor
        self.timestamp = timestamp
        self.token = -1  # State Stack entry, pushed once the node is attached
        self.tensor_slots = tensor_slots  # (feature_name, "node" | "edge")
        self.engine = get_engine() if engine is None else engine

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray | None, ...]:
        ctx = self.executor.backward_context(self.timestamp)
        saved = self.executor.pop_state(self.token)

        def run_backward(engine: ExecutionEngine):
            return self.program.backward(ctx, grad, saved, engine=engine)

        with span("core.engine_backward", program=self.program.name, t=self.timestamp):
            grads, _ = _resilient_run(
                self.executor, self.program, self.engine, run_backward,
                direction="bwd", timestamp=self.timestamp,
            )
        return tuple(grads.get(name) for name, _kind in self.tensor_slots)


def graph_aggregate(
    program: VertexProgram,
    executor: TemporalExecutor,
    node_feats: Mapping[str, Tensor | np.ndarray],
    edge_feats: Mapping[str, Tensor | np.ndarray] | None = None,
) -> Tensor:
    """Run a compiled aggregation at the executor's current timestamp.

    Tensor-valued features participate in autodiff; ndarray-valued features
    (degree norms etc.) are structural constants.
    """
    ctx: GraphContext = executor.current_context()
    timestamp = executor.current_timestamp
    assert timestamp is not None

    node_arrays: dict[str, np.ndarray] = {}
    edge_arrays: dict[str, np.ndarray] = {}
    tensor_slots: list[tuple[str, str]] = []
    tensor_inputs: list[Tensor] = []
    for name, value in node_feats.items():
        if isinstance(value, Tensor):
            node_arrays[name] = value.data
            tensor_slots.append((name, "node"))
            tensor_inputs.append(value)
        else:
            node_arrays[name] = np.asarray(value)
    for name, value in (edge_feats or {}).items():
        if isinstance(value, Tensor):
            edge_arrays[name] = value.data
            tensor_slots.append((name, "edge"))
            tensor_inputs.append(value)
        else:
            edge_arrays[name] = np.asarray(value)

    def run_forward(eng: ExecutionEngine):
        return program.forward(ctx, node_arrays, edge_arrays or None, engine=eng)

    with span("core.engine_forward", program=program.name, t=timestamp):
        (out_np, saved), engine = _resilient_run(
            executor, program, executor.engine, run_forward,
            direction="fwd", timestamp=timestamp,
        )
    out = Tensor(out_np)
    node = _GraphAggregationTape(program, executor, timestamp, tensor_slots, engine=engine)
    if node.attach(out, tuple(tensor_inputs)):
        node.token = executor.push_state(saved, tag=program.name)
    return out


class VertexCentricLayer(nn.Module):
    """Base class for STGraph GNN layers defined by a vertex program."""

    def __init__(
        self,
        vertex_fn: Callable,
        feature_widths: Mapping[str, str],
        grad_features: set[str],
        name: str,
        state_stack_opt: bool = True,
    ) -> None:
        super().__init__()
        self.program = compile_vertex_program(
            vertex_fn,
            feature_widths=feature_widths,
            grad_features=grad_features,
            name=name,
            state_stack_opt=state_stack_opt,
        )

    @property
    def plan(self):
        """The layer's cached :class:`~repro.compiler.plan.ProgramPlan`."""
        return self.program.plan

    @property
    def plan_id(self) -> str:
        """The plan's content-hash identity in the process-wide cache."""
        return self.program.plan_id

    def aggregate(
        self,
        executor: TemporalExecutor,
        node_feats: Mapping[str, Tensor | np.ndarray],
        edge_feats: Mapping[str, Tensor | np.ndarray] | None = None,
    ) -> Tensor:
        """Run this layer's compiled aggregation at the executor's current timestamp."""
        return graph_aggregate(self.program, executor, node_feats, edge_feats)

    @property
    def generated_forward_source(self) -> str:
        """Source of the generated forward kernel."""
        return self.program.forward_source

    @property
    def generated_backward_source(self) -> str:
        """Source of the generated backward kernel."""
        return self.program.backward_source
