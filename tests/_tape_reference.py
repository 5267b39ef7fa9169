"""Frozen tape oracle for ``Function.apply`` and ``Tensor.backward`` (test-only).

This is the autodiff tape exactly as it stood while tape nodes held their
input *tensors* (``src/repro/tensor/ops.py`` and ``src/repro/tensor/tensor.py``
at commit eb62d0d): ``apply`` stores the coerced inputs on the node as
``inputs``, and ``backward`` walks tensors keyed by ``id`` with a max-heap on
each tensor's creation sequence number.  The tensor class is renamed and
stripped to what the tape reads, the recording is a function instead of a
classmethod, and nothing else changed.  It is **not a code path**: nothing
under ``src/`` may import it, and it must not be edited to follow the tape.

The op classes themselves (``repro.tensor.ops.Add`` ... and the aggregation
node's ``backward``) are shared with the real tape: the oracle pins the
recording and the sweep, i.e. which gradient is accumulated into which
tensor in which order.  ``tests/test_tensor_tape.py`` drives random op DAGs
through both and requires bitwise-equal parameter gradients.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Mapping

import numpy as np

from repro.core.module import _GraphAggregationTape
from repro.tensor.tensor import is_grad_enabled

__all__ = ["ReferenceTensor", "reference_apply", "reference_aggregate"]

_creation_counter = itertools.count()


class ReferenceTensor:
    """The pre-change ``Tensor``: data, grad, and the producing node."""

    __slots__ = ("data", "grad", "requires_grad", "_ctx", "_seq", "__weakref__")

    def __init__(self, data: np.ndarray, requires_grad: bool = False) -> None:
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float32)
        if data.dtype == np.float64:
            data = data.astype(np.float32)
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._ctx = None
        self._seq = next(_creation_counter)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """The pre-change reverse sweep, verbatim."""
        if not self.requires_grad and self._ctx is None:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar backward()")
            grad = np.ones_like(self.data)

        consumers: dict[int, int] = {}
        nodes: dict[int, ReferenceTensor] = {id(self): self}
        stack: list[ReferenceTensor] = [self]
        visited: set[int] = {id(self)}
        while stack:
            node = stack.pop()
            if node._ctx is None:
                continue
            for parent in node._ctx.inputs:
                if not isinstance(parent, ReferenceTensor) or parent._ctx is None:
                    continue
                consumers[id(parent)] = consumers.get(id(parent), 0) + 1
                if id(parent) not in visited:
                    visited.add(id(parent))
                    nodes[id(parent)] = parent
                    stack.append(parent)

        grads: dict[int, np.ndarray] = {id(self): grad}
        ready: list[tuple[int, int]] = []
        if self._ctx is not None:
            heapq.heappush(ready, (-self._seq, id(self)))
        while ready:
            _, node_id = heapq.heappop(ready)
            node = nodes[node_id]
            node_grad = grads.pop(node_id, None)
            ctx = node._ctx
            node._ctx = None
            if ctx is None:
                continue
            if node_grad is None:
                for parent in ctx.inputs:
                    if isinstance(parent, ReferenceTensor) and parent._ctx is not None and id(parent) in consumers:
                        consumers[id(parent)] -= 1
                        if consumers[id(parent)] == 0:
                            heapq.heappush(ready, (-parent._seq, id(parent)))
                continue
            input_grads = ctx.backward(node_grad)
            if not isinstance(input_grads, tuple):
                input_grads = (input_grads,)
            if len(input_grads) != len(ctx.inputs):
                raise RuntimeError(
                    f"{type(ctx).__name__}.backward returned {len(input_grads)} grads "
                    f"for {len(ctx.inputs)} inputs"
                )
            for parent, g in zip(ctx.inputs, input_grads):
                if not isinstance(parent, ReferenceTensor):
                    continue
                if g is not None:
                    if not (parent.requires_grad or parent._ctx is not None):
                        g = None
                    elif g.shape != parent.data.shape:
                        raise RuntimeError(
                            f"{type(ctx).__name__} produced grad of shape {g.shape} "
                            f"for input of shape {parent.data.shape}"
                        )
                if g is not None:
                    if parent._ctx is not None:
                        acc = grads.get(id(parent))
                        grads[id(parent)] = g if acc is None else acc + g
                    if parent.requires_grad:
                        if parent.grad is None:
                            parent.grad = np.zeros_like(parent.data)
                        parent.grad += g
                if parent._ctx is not None and id(parent) in consumers:
                    consumers[id(parent)] -= 1
                    if consumers[id(parent)] == 0:
                        heapq.heappush(ready, (-parent._seq, id(parent)))

        if self.requires_grad and self._ctx is None:
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            if not visited - {id(self)}:
                self.grad += grad


def _coerce(value: Any) -> ReferenceTensor:
    if isinstance(value, ReferenceTensor):
        return value
    return ReferenceTensor(np.asarray(value, dtype=np.float32))


def reference_apply(cls: type, *args: Any, **kwargs: Any) -> ReferenceTensor:
    """The pre-change ``Function.apply``: the node keeps its input tensors."""
    ctx = cls()
    tensors = tuple(_coerce(a) for a in args)
    out_data = ctx.forward(*(t.data for t in tensors), **kwargs)
    out = ReferenceTensor(out_data)
    if is_grad_enabled():
        needs = tuple(t.requires_grad or t._ctx is not None for t in tensors)
        if any(needs):
            ctx.inputs = tensors
            ctx.needs_input_grad = needs
            out._ctx = ctx
    return out


def reference_aggregate(program: Any, executor: Any, node_feats: Mapping[str, Any]) -> ReferenceTensor:
    """The pre-change ``graph_aggregate`` recording (no fault ladder): the
    node keeps the aggregated tensors as ``inputs``."""
    ctx = executor.current_context()
    timestamp = executor.current_timestamp
    arrays: dict[str, np.ndarray] = {}
    slots: list[tuple[str, str]] = []
    inputs: list[ReferenceTensor] = []
    for name, value in node_feats.items():
        if isinstance(value, ReferenceTensor):
            arrays[name] = value.data
            slots.append((name, "node"))
            inputs.append(value)
        else:
            arrays[name] = np.asarray(value)
    out_np, saved = program.forward(ctx, arrays, None, engine=executor.engine)
    out = ReferenceTensor(out_np)
    if is_grad_enabled() and any(t.requires_grad or t._ctx is not None for t in inputs):
        node = _GraphAggregationTape(program, executor, timestamp, slots, engine=None)
        node.token = executor.push_state(saved, tag=program.name)
        node.inputs = tuple(inputs)
        out._ctx = node
    return out
