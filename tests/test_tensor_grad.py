"""Gradient checks for every differentiable op (central differences)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F, no_grad


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x``."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_unary(op, x: np.ndarray, atol: float = 2e-2, **kwargs):
    t = Tensor(x.astype(np.float32), requires_grad=True)
    out = F.sum(op(t, **kwargs) if kwargs else op(t))
    out.backward()
    num = numeric_grad(lambda v: float(op(Tensor(v.astype(np.float32)), **kwargs).data.sum()), x.copy())
    assert t.grad is not None
    assert np.allclose(t.grad, num, atol=atol), f"{op}: {np.abs(t.grad - num).max()}"


@pytest.mark.parametrize(
    "op,domain",
    [
        (F.tanh, "any"),
        (F.sigmoid, "any"),
        (F.exp, "any"),
        (F.relu, "offzero"),
        (F.neg, "any"),
        (F.log, "pos"),
        (F.sqrt, "pos"),
    ],
)
def test_unary_grads(op, domain, rng):
    x = rng.standard_normal((3, 4))
    if domain == "pos":
        x = np.abs(x) + 0.5
    if domain == "offzero":
        x = x + np.sign(x) * 0.1  # keep away from the kink
    check_unary(op, x)


def test_leaky_relu_grad(rng):
    x = rng.standard_normal((3, 4))
    x = x + np.sign(x) * 0.1
    check_unary(lambda t: F.leaky_relu(t, 0.1), x)


def test_pow_grad(rng):
    x = np.abs(rng.standard_normal((3, 3))) + 0.5
    check_unary(lambda t: F.pow(t, 3.0), x)


@pytest.mark.parametrize("op", [F.add, F.sub, F.mul])
def test_binary_grads(op, rng):
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((3, 4))
    tx = Tensor(x.astype(np.float32), requires_grad=True)
    ty = Tensor(y.astype(np.float32), requires_grad=True)
    F.sum(op(tx, ty)).backward()
    nx = numeric_grad(lambda v: float(op(Tensor(v.astype(np.float32)), Tensor(y.astype(np.float32))).data.sum()), x.copy())
    ny = numeric_grad(lambda v: float(op(Tensor(x.astype(np.float32)), Tensor(v.astype(np.float32))).data.sum()), y.copy())
    assert np.allclose(tx.grad, nx, atol=1e-2)
    assert np.allclose(ty.grad, ny, atol=1e-2)


def test_div_grad(rng):
    x = rng.standard_normal((3, 4))
    y = np.abs(rng.standard_normal((3, 4))) + 1.0
    tx = Tensor(x.astype(np.float32), requires_grad=True)
    ty = Tensor(y.astype(np.float32), requires_grad=True)
    F.sum(F.div(tx, ty)).backward()
    assert np.allclose(tx.grad, 1.0 / y, atol=1e-3)
    assert np.allclose(ty.grad, -x / y**2, atol=1e-3)


def test_broadcast_grad_unbroadcasts(rng):
    """(4,5) * (5,) — the (5,) grad must be column-summed."""
    x = rng.standard_normal((4, 5)).astype(np.float32)
    r = rng.standard_normal(5).astype(np.float32)
    tx = Tensor(x, requires_grad=True)
    tr = Tensor(r, requires_grad=True)
    F.sum(F.mul(tx, tr)).backward()
    assert tr.grad.shape == (5,)
    assert np.allclose(tr.grad, x.sum(0), atol=1e-4)
    assert np.allclose(tx.grad, np.broadcast_to(r, x.shape), atol=1e-6)


def test_scalar_broadcast_grad(rng):
    x = rng.standard_normal((3, 3)).astype(np.float32)
    tx = Tensor(x, requires_grad=True)
    F.sum(F.mul(tx, 3.0)).backward()
    assert np.allclose(tx.grad, 3.0)


def test_matmul_grad(rng):
    x = rng.standard_normal((3, 4)).astype(np.float32)
    w = rng.standard_normal((4, 2)).astype(np.float32)
    g = rng.standard_normal((3, 2)).astype(np.float32)
    tx = Tensor(x, requires_grad=True)
    tw = Tensor(w, requires_grad=True)
    out = F.matmul(tx, tw)
    F.sum(F.mul(out, g)).backward()
    assert np.allclose(tx.grad, g @ w.T, atol=1e-5)
    assert np.allclose(tw.grad, x.T @ g, atol=1e-5)


def test_matmul_skips_gradients_nobody_reads(rng):
    """``Function.apply`` records which inputs ``Tensor.backward`` will keep a
    gradient for; ``MatMul.backward`` computes only those, and the ones it
    does compute are the bits it always produced."""
    x = rng.standard_normal((3, 4)).astype(np.float32)
    w = rng.standard_normal((4, 2)).astype(np.float32)
    g = rng.standard_normal((3, 2)).astype(np.float32)
    for x_needs, w_needs in [(False, True), (True, False), (True, True)]:
        tx, tw = Tensor(x, requires_grad=x_needs), Tensor(w, requires_grad=w_needs)
        ctx = F.matmul(tx, tw)._ctx
        assert ctx.needs_input_grad == (x_needs, w_needs)
        gx, gw = ctx.backward(g)
        assert (gx is not None) == x_needs and (gw is not None) == w_needs
        if x_needs:
            assert np.array_equal(gx, g @ w.T)
        if w_needs:
            assert np.array_equal(gw, x.T @ g)
    # an input produced by another op needs its gradient even without requires_grad
    hidden = F.mul(Tensor(x, requires_grad=True), 2.0)
    assert F.matmul(hidden, Tensor(w))._ctx.needs_input_grad == (True, False)


def test_getitem_grad_accumulates_duplicates(rng):
    x = Tensor(rng.standard_normal((5, 2)).astype(np.float32), requires_grad=True)
    idx = np.array([1, 1, 3])
    F.sum(F.getitem(x, idx)).backward()
    expect = np.zeros((5, 2), dtype=np.float32)
    expect[1] = 2.0
    expect[3] = 1.0
    assert np.allclose(x.grad, expect)


def test_index_select_scatter_grads(rng):
    x = Tensor(rng.standard_normal((6, 3)).astype(np.float32), requires_grad=True)
    idx = np.array([0, 0, 4])
    tgt = np.array([2, 1, 1])
    out = F.scatter_add(F.index_select(x, idx), tgt, 3)
    F.sum(out).backward()
    expect = np.zeros((6, 3), dtype=np.float32)
    expect[0] = 2.0
    expect[4] = 1.0
    assert np.allclose(x.grad, expect)


def test_concat_grad_splits(rng):
    a = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
    out = F.concat([a, b], axis=1)
    w = np.concatenate([np.ones((2, 3)), 2 * np.ones((2, 3))], axis=1).astype(np.float32)
    F.sum(F.mul(out, w)).backward()
    assert np.allclose(a.grad, 1.0)
    assert np.allclose(b.grad, 2.0)


def test_stack_grad(rng):
    a = Tensor(rng.standard_normal((2, 2)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 2)).astype(np.float32), requires_grad=True)
    F.sum(F.mul(F.stack([a, b]), 2.0)).backward()
    assert np.allclose(a.grad, 2.0) and np.allclose(b.grad, 2.0)


def test_softmax_grad(rng):
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 4)).astype(np.float32)

    def f(v):
        return float((F.softmax(Tensor(v.astype(np.float32)), axis=1).data * w).sum())

    t = Tensor(x.astype(np.float32), requires_grad=True)
    F.sum(F.mul(F.softmax(t, axis=1), w)).backward()
    num = numeric_grad(f, x.copy())
    assert np.allclose(t.grad, num, atol=2e-2)


def test_mean_max_grads(rng):
    x = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
    F.mean(x).backward()
    assert np.allclose(x.grad, 1.0 / 12)
    y = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]], dtype=np.float32), requires_grad=True)
    F.sum(F.max(y, axis=1)).backward()
    assert np.allclose(y.grad, [[0, 1], [1, 0]])


def test_grad_accumulates_across_backwards(rng):
    x = Tensor(rng.standard_normal((2, 2)).astype(np.float32), requires_grad=True)
    F.sum(F.mul(x, 1.0)).backward()
    F.sum(F.mul(x, 1.0)).backward()
    assert np.allclose(x.grad, 2.0)


def test_shared_subexpression_grad(rng):
    """y = x*x used twice in the graph: grads sum correctly."""
    x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
    y = F.mul(x, x)
    z = F.add(y, y)
    z.backward()
    assert np.allclose(x.grad, 8.0)  # d(2x^2)/dx = 4x = 8


def test_no_grad_disables_tape():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with no_grad():
        y = F.mul(x, 2.0)
    assert y._ctx is None
    with pytest.raises(RuntimeError):
        y.backward(np.ones(3, dtype=np.float32))


def test_backward_nonscalar_needs_grad():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    y = F.mul(x, 2.0)
    with pytest.raises(RuntimeError, match="non-scalar"):
        y.backward()
    y.backward(np.ones((2, 2), dtype=np.float32))
    assert np.allclose(x.grad, 2.0)


def test_long_chain_no_recursion_error():
    """Backward over a 5000-op chain must not hit Python's recursion limit."""
    x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    y = x
    for _ in range(5000):
        y = F.add(y, 0.0)
    F.sum(y).backward()
    assert np.allclose(x.grad, 1.0)


def test_deep_bptt_chain(rng):
    """Multiplicative hidden-state chain (mini BPTT): grad = product rule."""
    h = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
    scale = Tensor(np.array([0.9], dtype=np.float32), requires_grad=True)
    state = h
    for _ in range(20):
        state = F.mul(state, scale)
    F.sum(state).backward()
    assert np.allclose(h.grad, 0.9**20, atol=1e-5)
    assert np.allclose(scale.grad, 20 * 0.9**19, atol=1e-4)
