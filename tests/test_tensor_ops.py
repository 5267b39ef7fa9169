"""Forward correctness of tensor ops against NumPy references."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F


@pytest.fixture
def a(rng):
    return Tensor(rng.standard_normal((4, 5)).astype(np.float32))


@pytest.fixture
def b(rng):
    return Tensor(rng.standard_normal((4, 5)).astype(np.float32))


def test_add_sub_mul_div(a, b):
    assert np.allclose(F.add(a, b).data, a.data + b.data)
    assert np.allclose(F.sub(a, b).data, a.data - b.data)
    assert np.allclose(F.mul(a, b).data, a.data * b.data)
    assert np.allclose(F.div(a, F.add(b, 10.0)).data, a.data / (b.data + 10.0))


def test_operator_sugar(a, b):
    assert np.allclose((a + b).data, a.data + b.data)
    assert np.allclose((a - b).data, a.data - b.data)
    assert np.allclose((a * 2.0).data, a.data * 2.0)
    assert np.allclose((2.0 * a).data, 2.0 * a.data)
    assert np.allclose((-a).data, -a.data)
    assert np.allclose((a / 2.0).data, a.data / 2.0)
    assert np.allclose((1.0 - a).data, 1.0 - a.data)
    assert np.allclose((a**2).data, a.data**2)


def test_broadcasting_row(a, rng):
    row = Tensor(rng.standard_normal(5).astype(np.float32))
    assert np.allclose(F.add(a, row).data, a.data + row.data)
    assert np.allclose(F.mul(a, row).data, a.data * row.data)


def test_matmul(rng):
    x = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    w = Tensor(rng.standard_normal((4, 2)).astype(np.float32))
    assert np.allclose(F.matmul(x, w).data, x.data @ w.data, atol=1e-6)


def test_transpose(a):
    assert np.allclose(a.T.data, a.data.T)


def test_reshape(a):
    r = a.reshape(20)
    assert r.shape == (20,)
    r2 = F.reshape(a, (2, 10))
    assert r2.shape == (2, 10)
    r3 = F.reshape(a, (-1,))
    assert r3.shape == (20,)


def test_getitem(a):
    idx = np.array([0, 2])
    assert np.allclose(F.getitem(a, idx).data, a.data[idx])
    sl = F.getitem(a, slice(1, 3))
    assert np.allclose(sl.data, a.data[1:3])


def test_concat_stack(a, b):
    c = F.concat([a, b], axis=0)
    assert c.shape == (8, 5)
    assert np.allclose(c.data, np.concatenate([a.data, b.data]))
    c1 = F.concat([a, b], axis=1)
    assert c1.shape == (4, 10)
    s = F.stack([a, b], axis=0)
    assert s.shape == (2, 4, 5)


def test_index_select_scatter_add(rng):
    x = Tensor(rng.standard_normal((6, 3)).astype(np.float32))
    idx = np.array([0, 0, 5, 2])
    g = F.index_select(x, idx)
    assert np.allclose(g.data, x.data[idx])
    s = F.scatter_add(g, np.array([1, 1, 0, 2]), 4)
    expect = np.zeros((4, 3), dtype=np.float32)
    np.add.at(expect, np.array([1, 1, 0, 2]), x.data[idx])
    assert np.allclose(s.data, expect)


def test_reductions(a):
    assert np.allclose(F.sum(a).data, a.data.sum())
    assert np.allclose(F.sum(a, axis=0).data, a.data.sum(0))
    assert np.allclose(F.sum(a, axis=1, keepdims=True).data, a.data.sum(1, keepdims=True))
    assert np.allclose(F.mean(a).data, a.data.mean())
    assert np.allclose(F.mean(a, axis=1).data, a.data.mean(1))
    assert np.allclose(F.max(a, axis=0).data, a.data.max(0))


def test_activations(a):
    assert np.allclose(F.relu(a).data, np.maximum(a.data, 0))
    assert np.allclose(F.tanh(a).data, np.tanh(a.data), atol=1e-6)
    assert np.allclose(F.sigmoid(a).data, 1 / (1 + np.exp(-a.data)), atol=1e-6)
    assert np.allclose(F.exp(a).data, np.exp(a.data), atol=1e-5)
    pos = F.add(F.mul(a, a), 0.5)
    assert np.allclose(F.log(pos).data, np.log(pos.data), atol=1e-6)
    assert np.allclose(F.sqrt(pos).data, np.sqrt(pos.data), atol=1e-6)
    ln = F.leaky_relu(a, 0.1)
    assert np.allclose(ln.data, np.where(a.data > 0, a.data, 0.1 * a.data))


def test_sigmoid_extreme_values_stable():
    t = Tensor(np.array([-500.0, 500.0, 0.0], dtype=np.float32))
    out = F.sigmoid(t).data
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-6)
    assert out[1] == pytest.approx(1.0, abs=1e-6)


def _masked_sigmoid(a: np.ndarray) -> np.ndarray:
    """The two-branch formula the engine used to evaluate with boolean-mask
    gathers and scatters; kept here as the reference for the branch-free one."""
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stable_sigmoid_matches_masked_reference_bitwise(dtype, rng):
    from repro.tensor.ops import stable_sigmoid

    tiny = np.finfo(dtype).tiny
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, tiny / 4, -tiny / 4,
             88.7, -88.7, 709.0, -709.0, 1e-8, -1e-8, 20.0, -20.0]
    flat = np.concatenate([
        np.array(edges, dtype=dtype),
        rng.standard_normal(4096).astype(dtype),
        (rng.standard_normal(1024) * 50).astype(dtype),
    ])
    grid = flat[: 64 * 64].reshape(64, 64)
    cases = [
        np.array(0.3, dtype=dtype), np.array(-0.3, dtype=dtype),  # 0-d
        flat, grid,
        flat[::3], grid.T, grid[:, ::2], grid[5:40:2, 7],  # non-contiguous
        flat[:0],
    ]
    with np.errstate(all="ignore"):
        for a in cases:
            want = _masked_sigmoid(a)
            got = stable_sigmoid(a)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            # array_equal treats +0.0 == -0.0; outside NaN (whose sign is
            # not a value) the sign bit must agree too
            finite = ~np.isnan(want)
            assert np.array_equal(np.signbit(got)[finite], np.signbit(want)[finite])


def test_stable_sigmoid_float64_sweep_matches_masked_reference_bitwise():
    """A seeded sweep of float64 inputs: arbitrary bit patterns (every
    exponent, NaN, inf), the range where ``exp`` under- and overflows, and
    subnormals of both signs."""
    from repro.tensor.ops import stable_sigmoid

    rng = np.random.default_rng(20261015)
    patterns = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2**52, 50_000, dtype=np.uint64).view(np.float64) * rng.choice([-1.0, 1.0], 50_000)
    a = np.concatenate([patterns, rng.uniform(-760, 760, 200_000), rng.standard_normal(200_000) * 10, subnormal])
    with np.errstate(all="ignore"):
        want, got = _masked_sigmoid(a), stable_sigmoid(a)
    same = (want.view(np.uint64) == got.view(np.uint64)) | (np.isnan(want) & np.isnan(got))
    assert same.all(), a[~same][:5]


def test_tape_and_generated_kernel_sigmoid_share_bits(rng):
    """``F.sigmoid`` and the ``ew_sigmoid`` a generated kernel calls are one
    implementation: on a self-loop graph, where the aggregation is the
    identity, a vertex program's sigmoid returns the tape op's bits."""
    from repro.compiler import compile_vertex_program
    from repro.compiler.runtime import GraphContext, ew_sigmoid
    from repro.compiler.symbols import vfn
    from repro.graph import StaticGraph

    n = 64
    h = (rng.standard_normal((n, 5)) * 30).astype(np.float32)
    h[0] = [0.0, -0.0, 88.7, -88.7, 1e-30]
    tape = F.sigmoid(Tensor(h)).data
    assert np.array_equal(ew_sigmoid(h), tape)
    loops = np.arange(n, dtype=np.int64)
    ctx = GraphContext(StaticGraph(loops, loops, n))
    prog = compile_vertex_program(
        lambda v: v.agg_sum(lambda nb: vfn.sigmoid(nb.h)), {"h": "v"}, {"h"}, name="sig_bits"
    )
    for engine in ("kernel", "interpreter"):
        out, _saved = prog.with_engine(engine).forward(ctx, {"h": h})
        assert np.array_equal(out, tape)


def test_softmax(a):
    s = F.softmax(a, axis=1)
    assert np.allclose(s.data.sum(axis=1), 1.0, atol=1e-6)
    e = np.exp(a.data - a.data.max(1, keepdims=True))
    assert np.allclose(s.data, e / e.sum(1, keepdims=True), atol=1e-6)


def test_clip(a):
    c = F.clip(a, -0.5, 0.5)
    assert c.data.min() >= -0.5 and c.data.max() <= 0.5


def test_dropout_train_eval(a):
    d = F.dropout(a, p=0.5, training=True, seed=0)
    kept = d.data != 0
    # kept entries are scaled by 1/keep
    assert np.allclose(d.data[kept], a.data[kept] * 2.0, atol=1e-6)
    d_eval = F.dropout(a, p=0.5, training=False)
    assert np.allclose(d_eval.data, a.data)


def test_maximum(a, b):
    assert np.allclose(F.maximum(a, b).data, np.maximum(a.data, b.data))


def test_clone_independent(a):
    c = a.clone()
    c.data[0, 0] = 123.0
    assert a.data[0, 0] != 123.0


def test_detach_cuts_graph(a):
    x = Tensor(a.data, requires_grad=True)
    y = F.mul(x, 2.0)
    d = y.detach()
    assert d._ctx is None and not d.requires_grad
    assert d.data is y.data


def test_tensor_dtype_coercion():
    t = Tensor(np.arange(4, dtype=np.float64))
    assert t.dtype == np.float32
    t2 = Tensor([1, 2, 3])
    assert t2.dtype == np.float32


def test_tensor_wrapping_tensor_raises(a):
    with pytest.raises(TypeError):
        Tensor(a)


def test_numel_item_size(a):
    assert a.numel() == 20
    assert a.size() == (4, 5)
    assert a.size(1) == 5
    one = Tensor(np.array([3.5], dtype=np.float32))
    assert one.item() == pytest.approx(3.5)


def test_zeros_ones():
    z = F.zeros((2, 3))
    o = F.ones(4)
    assert not z.data.any() and (o.data == 1).all()
