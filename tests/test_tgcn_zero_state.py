"""Zero-state inference: an unrecorded TGCN step from ``h = None`` skips the
reset gate.

At ``H = 0`` the reset gate only multiplies zeros, so under ``no_grad`` a
step from the zero initial state runs ``conv_z`` and ``conv_h`` and
``tgcn_zero_state_gates``.  These tests pin that it changes no bit against
the general gate node on an explicit zero state (TGCN, PyG-T's TGCN and
A3TGCN's first period; random finite weights, N = F = 1 and 4099 x 15),
including the sign of a zero output, that grad mode does not move the
output, that an evaluation roll scores the same, the one documented
difference (a NaN in the reset gate's pre-activation), and that the reset
gate's aggregation is really not launched.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.pygt import PyGTTGCN
from repro.core import TemporalExecutor
from repro.graph import DTDG, GPMAGraph
from repro.graph.static import StaticGraph
from repro.nn import A3TGCN, TGCN
from repro.nn.tgcn import tgcn_gates, tgcn_zero_state_gates
from repro.serve import InferenceEngine
from repro.tensor import Tensor, functional as F, init, no_grad
from repro.tensor.nn import Linear
from repro.tensor.ops import stable_sigmoid
from repro.train import STGraphNodeRegressor
from repro.train.utils import evaluate_regression

IN = 3


def _bits(t):
    return t.data.dtype.str, t.data.shape, t.data.tobytes()


def _edges(n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)


def _randomize(model, rng, scale):
    """Finite random weights and nonzero biases (Linear biases start at 0)."""
    for _, p in model.named_parameters():
        p.data[...] = (rng.standard_normal(p.shape) * scale).astype(np.float32)


def _tgcn_step(n, f, seed):
    model, ex = TGCN(IN, f), TemporalExecutor(StaticGraph(*_edges(n, seed), n))
    x = Tensor(np.random.default_rng(seed + 1).standard_normal((n, IN)).astype(np.float32))

    def step(h):
        # Positions without a Graph Stack push, so the step runs with grad
        # on or off (nothing here runs a backward pass).
        ex.begin_inference(0)
        return model(ex, x, h)

    return model, step


def _pygt_step(n, f, seed):
    model, edges = PyGTTGCN(IN, f), np.stack(_edges(n, seed))
    x = Tensor(np.random.default_rng(seed + 1).standard_normal((n, IN)).astype(np.float32))
    return model, lambda h: model(x, edges, h)


def _a3tgcn_step(n, f, seed):
    model, ex = A3TGCN(IN, f, periods=3), TemporalExecutor(StaticGraph(*_edges(n, seed), n))
    rng = np.random.default_rng(seed + 1)
    xs = [Tensor(rng.standard_normal((n, IN)).astype(np.float32)) for _ in range(3)]

    def step(h):
        ex.begin_inference(0)  # as in _tgcn_step
        return model(ex, xs, h)

    return model, step


_MODELS = {"tgcn": _tgcn_step, "pygt_tgcn": _pygt_step, "a3tgcn": _a3tgcn_step}


def _zero_state_and_general(kind, n, f, seed, scale):
    init.set_seed(seed)
    model, step = _MODELS[kind](n, f, seed)
    _randomize(model, np.random.default_rng(seed), scale)
    with no_grad():
        return step(None), step(F.zeros((n, f)))


@given(
    kind=st.sampled_from(sorted(_MODELS)),
    shape=st.one_of(st.tuples(st.integers(1, 40), st.integers(1, 17)), st.just((4099, 15))),
    scale=st.sampled_from([0.1, 1.0, 8.0]),
    seed=st.integers(0, 2**16),
)
@example(kind="tgcn", shape=(1, 1), scale=1.0, seed=0)
@example(kind="pygt_tgcn", shape=(1, 1), scale=1.0, seed=0)
@example(kind="a3tgcn", shape=(1, 1), scale=1.0, seed=0)
@example(kind="tgcn", shape=(4099, 15), scale=1.0, seed=1)
@example(kind="pygt_tgcn", shape=(4099, 15), scale=1.0, seed=1)
@example(kind="a3tgcn", shape=(4099, 15), scale=1.0, seed=1)
@settings(max_examples=40, deadline=None)
def test_zero_state_step_is_bitwise_the_general_step(kind, shape, scale, seed):
    """The ``h = None`` step under ``no_grad`` equals the general gate node run
    on an explicit ``F.zeros`` state, byte for byte."""
    n, f = shape
    zero, general = _zero_state_and_general(kind, n, f, seed, scale)
    assert _bits(zero) == _bits(general)


def _gates(n, f, rng):
    lins = [Linear(2 * f, f) for _ in range(3)]
    for lin in lins:
        lin.bias.data[...] = rng.uniform(-1, 1, f)
    a = [Tensor(rng.standard_normal((n, f)).astype(np.float32)) for _ in range(3)]
    return a, lins


@given(n=st.integers(1, 64), f=st.integers(1, 17), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_zero_state_gates_are_bitwise_the_gate_node(n, f, seed):
    (a_z, a_r, a_h), (lin_z, lin_r, lin_h) = _gates(n, f, np.random.default_rng(seed))
    with no_grad():
        general = tgcn_gates(a_z, a_r, a_h, F.zeros((n, f)), lin_z, lin_r, lin_h)
        zero = tgcn_zero_state_gates(a_z, a_h, lin_z, lin_h)
    assert _bits(zero) == _bits(general)


@pytest.mark.parametrize("pre_h", [-3.0, -1.4e-45], ids=["z_saturated", "subnormal_product"])
def test_negative_zero_product_comes_out_positive(pre_h):
    """Where ``(1−z)·h̃`` is ``-0.0`` the general path's ``z·0 + …`` returns
    ``+0.0``; so does the zero-state path.  Two ways to get there: ``z``
    rounds to exactly 1 and ``h̃ < 0``, or ``h̃`` is the smallest negative
    subnormal and ``(1−z)·h̃`` underflows."""
    n, f = 1, 1
    rng = np.random.default_rng(0)
    (a_z, a_r, a_h), (lin_z, lin_r, lin_h) = _gates(n, f, rng)
    a_z.data[...] = 0.0
    a_h.data[...] = 0.0
    lin_z.bias.data[...] = 40.0 if pre_h == -3.0 else 0.0  # z = 1 exactly, or 1/2
    lin_h.bias.data[...] = pre_h
    z = stable_sigmoid(lin_z.bias.data)
    h_tilde = np.tanh(lin_h.bias.data)
    assert np.signbit((1 - z) * h_tilde).all() and ((1 - z) * h_tilde == 0).all()
    with no_grad():
        general = tgcn_gates(a_z, a_r, a_h, F.zeros((n, f)), lin_z, lin_r, lin_h)
        zero = tgcn_zero_state_gates(a_z, a_h, lin_z, lin_h)
    assert general.data.tobytes() == np.zeros((n, f), np.float32).tobytes()  # +0.0
    assert _bits(zero) == _bits(general)


@pytest.mark.parametrize("kind", ["tgcn", "pygt_tgcn"])
def test_grad_mode_does_not_move_the_zero_state_step(kind):
    """With grad enabled the step takes the general path (and records it);
    its output bytes equal the unrecorded zero-state step's."""
    init.set_seed(5)
    model, step = _MODELS[kind](30, 6, 5)
    _randomize(model, np.random.default_rng(5), 1.0)
    recorded = step(None)
    with no_grad():
        unrecorded = step(None)
    assert recorded._ctx is not None and unrecorded._ctx is None
    assert _bits(recorded) == _bits(unrecorded)


class _ExplicitZeroState:
    """A model whose first step passes ``F.zeros`` instead of ``None``."""

    def __init__(self, model):
        self.model = model

    def step(self, executor, x, state):
        if state is None:
            state = F.zeros((x.shape[0], self.model.cell.out_features))
        return self.model.step(executor, x, state)


def test_evaluate_regression_scores_are_unchanged():
    n, steps = 40, 4
    init.set_seed(3)
    model = STGraphNodeRegressor(IN, 8)
    rng = np.random.default_rng(3)
    _randomize(model, rng, 1.0)
    feats = [rng.standard_normal((n, IN)).astype(np.float32) for _ in range(steps)]
    targets = [rng.standard_normal((n, 1)).astype(np.float32) for _ in range(steps)]
    graph = StaticGraph(*_edges(n, 3), n)
    zero = evaluate_regression(model, TemporalExecutor(graph), feats, targets)
    general = evaluate_regression(_ExplicitZeroState(model), TemporalExecutor(graph), feats, targets)
    assert zero == general


def test_nan_in_the_reset_gate_is_the_documented_difference():
    """A NaN in the reset gate's pre-activation makes every row of the general
    step NaN (``r·0`` is NaN and feeds ``h̃``'s product); the zero-state step
    never reads the reset gate, so it returns the rows a finite reset gate
    gives."""
    n, f = 5, 3
    (a_z, a_r, a_h), (lin_z, lin_r, lin_h) = _gates(n, f, np.random.default_rng(7))
    with no_grad():
        finite = tgcn_gates(a_z, a_r, a_h, F.zeros((n, f)), lin_z, lin_r, lin_h)
        lin_r.bias.data[0] = np.nan
        general = tgcn_gates(a_z, a_r, a_h, F.zeros((n, f)), lin_z, lin_r, lin_h)
        zero = tgcn_zero_state_gates(a_z, a_h, lin_z, lin_h)
    assert np.isnan(general.data).all()
    assert np.isfinite(zero.data).all()
    assert _bits(zero) == _bits(finite)


def test_zero_state_forward_launches_two_aggregations(fresh_device, rng):
    n, f = 50, 4
    model, ex = TGCN(IN, f), TemporalExecutor(StaticGraph(*_edges(n, 9), n))
    x = Tensor(rng.standard_normal((n, IN)).astype(np.float32))
    launches = fresh_device.launcher.launches_by_tier
    with no_grad():
        ex.begin_inference(0)
        model(ex, x)
        assert sum(launches.values()) == 2
        model(ex, x, F.zeros((n, f)))
        assert sum(launches.values()) == 2 + 3


def test_serving_forward_runs_no_reset_gate_aggregation(rng, monkeypatch):
    n, feats_in = 48, 8
    src, dst = rng.integers(0, n, 220), rng.integers(0, n, 220)
    keep = src != dst
    dtdg = DTDG([(src[keep], dst[keep])], num_nodes=n)
    feats = rng.standard_normal((n, feats_in)).astype(np.float32)
    model = STGraphNodeRegressor(feats_in, 12)
    calls = {"conv_z": 0, "conv_r": 0, "conv_h": 0}
    for name in calls:
        conv = getattr(model.cell, name)
        monkeypatch.setattr(conv, "forward", _counted(conv.forward, calls, name))
    with InferenceEngine(model, GPMAGraph(dtdg), feats) as eng:
        eng.query(3)
    assert eng.forwards >= 1
    assert calls == {"conv_z": eng.forwards, "conv_r": 0, "conv_h": eng.forwards}


def _counted(fn, calls, name):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper
