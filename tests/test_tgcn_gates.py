"""One tape node per TGCN step.

The GRU gate tail of ``repro.nn.TGCN`` (and of PyG-T's TGCN) is one
``TGCNGates`` node.  These tests pin that it changes no bit (outputs and
every gradient equal the frozen seventeen-op composition in
``tests/_tgcn_reference.py``, over odd shapes, every kind of previous state
and BPTT over several steps), that it keeps exactly ``a_z, a_r, a_h, H, z,
r, h̃`` per step and nothing under ``no_grad``, and that parameter names
and order, and so checkpoints, did not move.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.pygt import PyGTTGCN
from repro.core import TemporalExecutor
from repro.graph.static import StaticGraph
from repro.nn import TGCN
from repro.nn.tgcn import TGCNGates, tgcn_gates
from repro.tensor import Tensor, functional as F, init, no_grad
from repro.tensor.nn import Linear
from tests._tgcn_reference import reference_gate_tail, reference_tgcn_step
from tests.test_tensor_tape import _tape_saved_arrays

#: (name, shape) of every TGCN(3, 5) parameter, in ``parameters()`` order, as
#: the seventeen-op TGCN registered them; checkpoints are keyed on these.
_PARENT_PARAMETERS = [
    ("conv_z.weight", (3, 5)), ("conv_z.bias", (5,)), ("lin_z.weight", (10, 5)), ("lin_z.bias", (5,)),
    ("conv_r.weight", (3, 5)), ("conv_r.bias", (5,)), ("lin_r.weight", (10, 5)), ("lin_r.bias", (5,)),
    ("conv_h.weight", (3, 5)), ("conv_h.bias", (5,)), ("lin_h.weight", (10, 5)), ("lin_h.bias", (5,)),
]


def _bits(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def _run_gates(tail, seed, n, f, steps, h_mode, scale):
    """``steps`` gate steps chained through H, a loss read after each step
    (as the trainer does), one backward; returns every output and gradient."""
    rng = np.random.default_rng(seed)
    init.set_seed(seed)
    lins = [Linear(2 * f, f) for _ in range(3)]
    for lin in lins:  # Linear biases start at zero; make them count
        lin.bias.data[...] = rng.uniform(-1, 1, f)
    if h_mode == "zeros":
        h = F.zeros((n, f))
    else:
        h = Tensor((rng.standard_normal((n, f)) * scale).astype(np.float32), requires_grad=h_mode == "leaf")
    h0 = h
    gates, outputs, total = [], [], None
    for _ in range(steps):
        a = [Tensor((rng.standard_normal((n, f)) * scale).astype(np.float32), requires_grad=True) for _ in range(3)]
        gates += a
        h = tail(*a, h, *lins)
        outputs.append(h.data.copy())
        loss = F.sum(F.mul(h, rng.standard_normal((n, f)).astype(np.float32)))
        total = loss if total is None else F.add(total, loss)
    total.backward()
    return (
        [_bits(o) for o in outputs],
        [_bits(a.grad) for a in gates],
        _bits(h0.grad),
        [_bits(p.grad) for lin in lins for p in (lin.weight, lin.bias)],
    )


@given(
    shape=st.one_of(st.tuples(st.integers(1, 40), st.integers(1, 17)), st.sampled_from([(4099, 15), (24000, 5)])),
    steps=st.integers(1, 3),
    h_mode=st.sampled_from(["zeros", "constant", "leaf"]),
    scale=st.sampled_from([0.5, 3.0, 40.0]),
    seed=st.integers(0, 2**16),
)
# F = 1: stacking the weight gradient from two half products (a^T dpre over
# H^T dpre) instead of one [a || H]^T dpre product changes bits here.
@example(shape=(7, 1), steps=2, h_mode="leaf", scale=3.0, seed=0)
@example(shape=(1, 1), steps=3, h_mode="zeros", scale=0.5, seed=1)
@example(shape=(4099, 15), steps=2, h_mode="leaf", scale=3.0, seed=2)
@settings(max_examples=60, deadline=None)
def test_gate_node_is_bitwise_the_unfused_composition(shape, steps, h_mode, scale, seed):
    """Outputs, the three aggregation inputs' gradients, the previous state's
    and all six ``lin_*`` gradients equal the seventeen-op tape's, bit for bit,
    for a zero, constant or leaf initial state and BPTT over several steps."""
    n, f = shape
    fused = _run_gates(tgcn_gates, seed, n, f, steps, h_mode, scale)
    reference = _run_gates(reference_gate_tail, seed, n, f, steps, h_mode, scale)
    assert fused == reference


def _graph(n, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, 3 * n)
    dst = rng.integers(0, n, 3 * n)
    return StaticGraph(src, dst, n)


def _run_tgcn(step, n, f, h_leaf, seed, steps=3):
    init.set_seed(seed)
    model = TGCN(3, f)
    rng = np.random.default_rng(seed)
    for _, p in model.named_parameters():  # nonzero biases
        if p.ndim == 1:
            p.data[...] = rng.uniform(-1, 1, p.shape)
    ex = TemporalExecutor(_graph(n, seed))
    h = Tensor(rng.standard_normal((n, f)).astype(np.float32), requires_grad=True) if h_leaf else None
    h0, outputs, total = h, [], None
    for t in range(steps):
        ex.begin_timestamp(t)
        h = step(model, ex, Tensor(rng.standard_normal((n, 3)).astype(np.float32)), h)
        outputs.append(_bits(h.data))
        loss = F.mse_loss(h, rng.standard_normal((n, f)).astype(np.float32))
        total = loss if total is None else F.add(total, loss)
    total.backward()
    ex.check_drained()
    grads = {name: _bits(p.grad) for name, p in model.named_parameters()}
    return outputs, grads, None if h0 is None else _bits(h0.grad)


@pytest.mark.parametrize(("n", "f"), [(1, 1), (12, 1), (30, 4), (64, 16)])
@pytest.mark.parametrize("h_leaf", [False, True])
def test_tgcn_is_bitwise_the_unfused_tgcn(n, f, h_leaf):
    """Through a real TGCN (three compiled aggregations and the State Stack)
    the convolution parameters' gradients are bit-identical too."""
    fused = _run_tgcn(lambda m, ex, x, h: m(ex, x, h), n, f, h_leaf, seed=n + f)
    reference = _run_tgcn(reference_tgcn_step, n, f, h_leaf, seed=n + f)
    assert fused == reference
    assert all(g is not None for g in fused[1].values())


def test_both_tgcns_record_the_gate_tail_as_one_node(rng):
    n = 6
    ex = TemporalExecutor(_graph(n, 0))
    ex.begin_timestamp(0)
    x = Tensor(rng.standard_normal((n, 3)).astype(np.float32))
    edges = np.stack([rng.integers(0, n, 12), rng.integers(0, n, 12)])
    assert type(TGCN(3, 4)(ex, x)._ctx) is TGCNGates
    assert type(PyGTTGCN(3, 4)(x, edges)._ctx) is TGCNGates


# ---------------------------------------------------------------------------
# What the node keeps
# ---------------------------------------------------------------------------
def _owner(a):
    return a if a.base is None else a.base


def test_tape_keeps_seven_nxf_arrays_per_step_plus_x(fresh_device, rng):
    """After T steps the saved arrays are ``a_z, a_r, a_h, H, z, r, h̃`` per
    step (the output of the last step is held, not saved) plus the feature
    matrix the convolutions' ``X @ W`` read, and the ``tensor`` tag is
    exactly those plus the held tensors."""
    n, f, steps = 10, 5, 4
    ex = TemporalExecutor(_graph(n, 1))
    model = TGCN(3, f)
    x = Tensor(rng.standard_normal((n, 3)).astype(np.float32))
    params = {id(_owner(p.data)): _owner(p.data).nbytes for p in model.parameters()}
    gc.collect()
    h = None
    for t in range(steps):
        ex.begin_timestamp(t)
        h = model(ex, x, h)
    saved = {id(_owner(a)): _owner(a).nbytes for a in _tape_saved_arrays(h._ctx) if id(_owner(a)) not in params}
    assert sum(saved.values()) == steps * 7 * n * f * 4 + x.nbytes
    held = {id(x.data): x.nbytes, id(h.data): h.nbytes, **params}
    assert fresh_device.tracker.bytes_by_tag()["tensor"] == sum({**saved, **held}.values())


def test_no_grad_step_saves_and_adopts_nothing(fresh_device, rng, monkeypatch):
    """Under ``no_grad`` the node is not recorded, drops what its forward
    saved, and the ``tensor`` tag holds exactly the tensors held here."""
    nodes = []
    attach = TGCNGates.attach
    monkeypatch.setattr(TGCNGates, "attach", lambda self, out, inputs: nodes.append(self) or attach(self, out, inputs))
    n, f = 10, 5
    ex = TemporalExecutor(_graph(n, 2))
    model = TGCN(3, f)
    x = Tensor(rng.standard_normal((n, 3)).astype(np.float32))
    h = Tensor(rng.standard_normal((n, f)).astype(np.float32))
    gc.collect()
    with no_grad():
        ex.begin_timestamp(0)
        out = model(ex, x, h)
    assert out._ctx is None
    assert len(nodes) == 1 and nodes[0].saved == ()
    held = [x, h, out, *model.parameters()]
    assert fresh_device.tracker.bytes_by_tag()["tensor"] == sum(t.nbytes for t in held)


@pytest.mark.parametrize("cls", [TGCN, PyGTTGCN])
def test_parameter_names_and_order_are_unchanged(cls):
    """``state_dict`` keys and ``parameters()`` order as before the fused
    node: checkpoints and optimizer state written then still load."""
    model = cls(3, 5)
    assert [(name, p.shape) for name, p in model.named_parameters()] == _PARENT_PARAMETERS
    assert list(model.state_dict()) == [name for name, _ in _PARENT_PARAMETERS]
    assert [p.shape for p in model.parameters()] == [shape for _, shape in _PARENT_PARAMETERS]
