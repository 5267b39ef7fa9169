"""The tape keeps what backward reads.

Tape nodes link to the nodes that produced their inputs, never to the input
tensors, so an intermediate lives exactly as long as user code or an op's
``saved`` holds it.  These tests pin that (lifetimes, exact byte accounting)
and that nothing else moved: random op DAGs give bitwise the gradients of the
frozen pre-change tape in ``tests/_tape_reference.py``, and a consumed graph
behaves as before.
"""

from __future__ import annotations

import contextlib
import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import TemporalExecutor
from repro.core.module import graph_aggregate
from repro.graph.static import StaticGraph
from repro.nn import GCNConv, TGCN
from repro.nn.gcn import gcn_norm
from repro.tensor import Tensor, functional as F, no_grad, ops
from tests._tape_reference import ReferenceTensor, reference_aggregate, reference_apply

_N = 4  # every DAG value is N x N, so any two of them multiply
_SRC = np.array([0, 1, 2, 3, 0, 2])
_DST = np.array([1, 2, 3, 0, 2, 1])

#: op name -> (arity, how to apply it through ``apply(cls, *args, **kwargs)``)
_OPS = {
    "add": (2, lambda ap, a, b: ap(ops.Add, a, b)),
    "sub": (2, lambda ap, a, b: ap(ops.Sub, a, b)),
    "mul": (2, lambda ap, a, b: ap(ops.Mul, a, b)),
    "matmul": (2, lambda ap, a, b: ap(ops.MatMul, a, b)),
    "maximum": (2, lambda ap, a, b: ap(ops.Maximum, a, b)),
    "concat_slice": (2, lambda ap, a, b: ap(ops.GetItem, ap(ops.Concat, a, b, axis=1), idx=(slice(None), slice(1, 1 + _N)))),
    "mean_bcast": (2, lambda ap, a, b: ap(ops.Add, a, ap(ops.Mean, b, axis=0, keepdims=True))),
    "tanh": (1, lambda ap, a: ap(ops.Tanh, a)),
    "sigmoid": (1, lambda ap, a: ap(ops.Sigmoid, a)),
    "relu": (1, lambda ap, a: ap(ops.ReLU, a)),
    "neg": (1, lambda ap, a: ap(ops.Neg, a)),
    "one_minus": (1, lambda ap, a: ap(ops.Sub, 1.0, a)),
    "scale": (1, lambda ap, a: ap(ops.Mul, a, 0.5)),
    "agg": (1, None),  # the GCN aggregation node
}


def _new_apply(cls, *args, **kwargs):
    return cls.apply(*args, **kwargs)


def _run_dag(spec, seed, tensor_cls, apply, aggregate, program):
    """Build ``spec`` in one tape world, backward its loss, return the leaves."""
    rng = np.random.default_rng(seed)
    n_params, n_consts, steps, roots = spec
    params = [tensor_cls(rng.uniform(-1, 1, (_N, _N)).astype(np.float32), requires_grad=True) for _ in range(n_params)]
    consts = [tensor_cls(rng.uniform(-1, 1, (_N, _N)).astype(np.float32)) for _ in range(n_consts)]
    values = params + consts
    ex = TemporalExecutor(StaticGraph(_SRC, _DST, _N))
    ex.begin_timestamp(0)
    norm = gcn_norm(ex.current_context(), add_self_loops=True)
    for name, i, j, island in steps:
        arity, fn = _OPS[name]
        a, b = values[i % len(values)], values[j % len(values)]
        with no_grad() if island else contextlib.nullcontext():
            out = aggregate(program, ex, {"h": a, "norm": norm}) if fn is None else fn(apply, *(a, b)[:arity])
        values.append(out)
    loss = None
    for r in roots:
        term = apply(ops.Sum, values[r % len(values)])
        loss = term if loss is None else apply(ops.Add, loss, term)
    if loss._ctx is None and not loss.requires_grad:
        return None  # nothing on the loss requires grad
    loss.backward()
    return params


_step = st.tuples(
    st.sampled_from(sorted(_OPS)),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.sampled_from([False, False, False, True]),
)
_dags = st.tuples(
    st.integers(1, 3),
    st.integers(0, 2),
    st.lists(_step, min_size=1, max_size=14),
    st.lists(st.integers(0, 10_000), min_size=1, max_size=3),
)


@given(spec=_dags, seed=st.integers(0, 2**16))
# A leaf with four gradient contributions, two of them ready at once: the
# smallest DAG whose bits change if the sweep pops ready nodes in another order.
@example(spec=(1, 0, [("add", 0, 0, False), ("add", 0, 0, False), ("matmul", 0, 0, False)], [3, 0]), seed=0)
@settings(max_examples=200, deadline=None)
def test_random_dags_match_the_frozen_tape_bitwise(spec, seed):
    """Shared subexpressions, one value read by several consumers, constants,
    leaves with and without ``requires_grad``, ``no_grad`` islands and a GCN
    aggregation node: every parameter gradient is bit-identical to the
    pre-change tape's (which kept input tensors and walked them by id)."""
    program = GCNConv(_N, _N).program
    new = _run_dag(spec, seed, Tensor, _new_apply, graph_aggregate, program)
    ref = _run_dag(spec, seed, ReferenceTensor, reference_apply, reference_aggregate, program)
    assert (new is None) == (ref is None)
    for p_new, p_ref in zip(new or (), ref or ()):
        assert (p_new.grad is None) == (p_ref.grad is None)
        if p_new.grad is not None:
            assert p_new.grad.dtype == p_ref.grad.dtype
            assert p_new.grad.tobytes() == p_ref.grad.tobytes()


# ---------------------------------------------------------------------------
# Lifetimes
# ---------------------------------------------------------------------------
def test_bias_add_output_read_by_concat_is_released_before_backward(fresh_device, rng):
    """``Add`` and ``Concat`` save nothing, so neither the matmul output nor the
    biased sum survives its last user reference; backward still works."""
    tracker = fresh_device.tracker
    x = Tensor(rng.standard_normal((6, 3)).astype(np.float32))
    w = Tensor(rng.standard_normal((3, 3)).astype(np.float32), requires_grad=True)
    bias = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
    h = Tensor(rng.standard_normal((6, 3)).astype(np.float32), requires_grad=True)
    projected = F.matmul(x, w)
    biased = F.add(projected, bias)
    cat = F.concat([biased, h], axis=1)
    refs = [weakref.ref(projected), weakref.ref(biased)]
    resident = tracker.current_bytes
    freed = projected.nbytes + biased.nbytes
    del projected, biased
    assert all(r() is None for r in refs)
    assert tracker.current_bytes == resident - freed
    F.sum(F.mul(cat, 2.0)).backward()
    assert np.array_equal(bias.grad, np.full(3, 12.0, dtype=np.float32))
    assert np.array_equal(w.grad, x.data.T @ np.full((6, 3), 2.0, dtype=np.float32))


def test_aggregation_input_and_output_are_released_before_backward(fresh_device, rng):
    """The aggregation's input ``h = x @ W`` is not retained (its backward state
    is on the State Stack), nor is its output once ``Add`` has read it."""
    tracker = fresh_device.tracker
    ex = TemporalExecutor(StaticGraph(_SRC, _DST, _N))
    ex.begin_timestamp(0)
    conv = GCNConv(3, 5)
    x = Tensor(rng.standard_normal((_N, 3)).astype(np.float32))
    h = F.matmul(x, conv.weight)
    agg = conv.aggregate(ex, {"h": h, "norm": gcn_norm(ex.current_context(), True)})
    out = F.add(agg, conv.bias)
    refs = [weakref.ref(h), weakref.ref(agg)]
    resident = tracker.current_bytes
    freed = h.nbytes + agg.nbytes
    del h, agg
    assert all(r() is None for r in refs)
    assert tracker.current_bytes == resident - freed
    F.sum(out).backward()
    ex.check_drained()
    assert conv.weight.grad is not None and conv.bias.grad is not None


def _tape_saved_arrays(root):
    """Every ndarray a node reachable from ``root`` saved for its backward."""
    seen, stack, arrays = set(), [root], []
    while stack:
        node = stack.pop()
        arrays.extend(a for a in node.saved if isinstance(a, np.ndarray))
        for parent in node.parents:
            if parent is not None and not isinstance(parent, Tensor) and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return arrays


def test_tensor_bytes_after_a_tgcn_forward_are_saved_plus_held(fresh_device, rng):
    """After one TGCN step the ``tensor``-tag bytes are exactly the arrays the
    tape saved plus the tensors this test holds: nothing else is resident."""
    ex = TemporalExecutor(StaticGraph(_SRC, _DST, _N))
    ex.begin_timestamp(0)
    model = TGCN(3, 5)
    x = Tensor(rng.standard_normal((_N, 3)).astype(np.float32))
    gc.collect()
    out = model(ex, x)
    bases = {}
    for a in _tape_saved_arrays(out._ctx) + [t.data for t in (x, out, *model.parameters())]:
        base = a if a.base is None else a.base
        bases[id(base)] = base.nbytes
    assert fresh_device.tracker.bytes_by_tag()["tensor"] == sum(bases.values())


# ---------------------------------------------------------------------------
# A consumed graph
# ---------------------------------------------------------------------------
def test_second_backward_raises_and_a_consumed_tensor_is_a_constant(rng):
    x = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
    y = F.tanh(F.mul(x, 2.0))
    loss = F.sum(y)
    sibling = F.sum(F.mul(y, y))  # recorded before the backward, reaches y's node
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        sibling.backward()
    w = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
    F.sum(F.mul(y, w)).backward()  # recorded after: y is a constant
    assert np.array_equal(x.grad, first)
    assert np.array_equal(w.grad, y.data)
    with pytest.raises(RuntimeError, match="does not require grad"):
        F.sum(F.mul(y, 3.0)).backward()


def test_consumed_node_drops_saved_and_parents(rng):
    x = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
    y = F.sigmoid(x)
    node = y._ctx
    assert node.parents == (x,) and len(node.saved) == 1
    F.sum(y).backward()
    assert node.parents is None and node.saved == ()
