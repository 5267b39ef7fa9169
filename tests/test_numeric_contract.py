"""The numeric contract: float32 results held to a bound of a float64 reference.

Across commits the model's float operations may be reordered (the GCN scale
fold, the TGCN gates' half products, the ``tanh`` sigmoid), so bits may
move; what may not move is the distance to exact arithmetic.  Each test here
runs one frozen-weights step through the shipped code and through the same
formulas in float64 (dense matrices, written out by hand, gradients
included) and asserts the normwise error stays within ``F32_REL_BOUND``
(DESIGN.md "The numeric contract").  Bitwise equality stays the contract
*within* a commit: engines, resume, serving against its oracle and the
zero-state step against the general one.

The tests use only what every commit since the contract was stated ships,
so they run unchanged on a parent to compare both sides' errors; each
prints its largest error (``pytest -s``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TemporalExecutor
from repro.graph.static import StaticGraph
from repro.nn import TGCN, GCNConv
from repro.nn.gcn import gcn_norm
from repro.tensor import Tensor, functional as F, init, no_grad
from repro.tensor.ops import stable_sigmoid

#: Normwise bound of a float32 result against its float64 reference:
#: ``max|got − ref| <= F32_REL_BOUND · max|ref|``, 128 float32 ulps of the
#: array's largest magnitude.
F32_REL_BOUND = 2.0**-16
#: Absolute bound of ``stable_sigmoid`` against the exact logistic function,
#: per input precision (one ulp of 1.0 in float32, two in float64).
SIGMOID_ABS_BOUND = {np.float32: 2.0**-23, np.float64: 2.0**-51}

N, IN, F_OUT = 300, 6, 8


def max_rel_error(got, ref) -> float:
    """``max|got − ref| / max|ref|`` in float64 (0 for an all-zero pair)."""
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    assert got.shape == ref.shape
    err = float(np.abs(got - ref).max(initial=0.0))
    scale = float(np.abs(ref).max(initial=0.0))
    return err / scale if scale else err


def _check(label: str, pairs: dict[str, tuple]) -> None:
    errors = {name: max_rel_error(got, ref) for name, (got, ref) in pairs.items()}
    print(f"{label}: max normwise error {max(errors.values()):.3e} ({max(errors, key=errors.get)})")
    for name, err in errors.items():
        assert err <= F32_REL_BOUND, f"{label} {name}: {err:.3e} > {F32_REL_BOUND:.3e}"


def _graph(sort_by_degree: bool, seed: int = 7):
    """A random multigraph (duplicate edges and self-edges included) and its
    float64 adjacency ``A[v, u]`` = number of edges ``u → v``."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, N, 5 * N), rng.integers(0, N, 5 * N)
    dst[: N // 10] = 0  # one high in-degree vertex
    adj = np.zeros((N, N))
    np.add.at(adj, (dst, src), 1.0)
    return StaticGraph(src, dst, N, sort_by_degree=sort_by_degree), adj


def _operator64(adj: np.ndarray, self_loops: bool) -> np.ndarray:
    """GCN's normalized operator in float64: ``D^-½ (A [+ I]) D^-½``."""
    deg = adj.sum(axis=1)
    norm = 1.0 / np.sqrt(deg + 1.0 if self_loops else np.maximum(deg, 1.0))
    full = adj + np.eye(len(adj)) if self_loops else adj
    return norm[:, None] * full * norm[None, :]


@pytest.mark.parametrize("sort_by_degree", [False, True], ids=["vertex_order", "degree_order"])
@pytest.mark.parametrize("self_loops", [True, False], ids=["self_loops", "plain"])
def test_gcn_forward_and_dh_within_bound(self_loops, sort_by_degree):
    """GCNConv's aggregation and its ``h`` gradient, and the layer's weight
    and bias gradients through it."""
    graph, adj = _graph(sort_by_degree)
    op64 = _operator64(adj, self_loops)
    rng = np.random.default_rng(1)
    init.set_seed(1)
    conv = GCNConv(IN, F_OUT, add_self_loops=self_loops)
    conv.bias.data[...] = rng.uniform(-1, 1, F_OUT)
    ex = TemporalExecutor(graph)
    ex.begin_timestamp(0)
    x = rng.standard_normal((N, IN)).astype(np.float32)
    g = rng.standard_normal((N, F_OUT)).astype(np.float32)

    h = Tensor(rng.standard_normal((N, F_OUT)).astype(np.float32), requires_grad=True)
    agg = conv.aggregate(ex, {"h": h, "norm": gcn_norm(ex.current_context(), self_loops)})
    F.sum(F.mul(agg, g)).backward()
    h64 = h.data.astype(np.float64)
    pairs = {"out": (agg.data, op64 @ h64), "dh": (h.grad, op64.T @ g)}

    ex.begin_timestamp(0)
    out = conv(ex, Tensor(x))
    F.sum(F.mul(out, g)).backward()
    w64, b64 = conv.weight.data.astype(np.float64), conv.bias.data.astype(np.float64)
    px = op64 @ x.astype(np.float64)
    pairs.update({
        "layer_out": (out.data, px @ w64 + b64),
        "dW": (conv.weight.grad, px.T @ g),
        "db": (conv.bias.grad, g.astype(np.float64).sum(axis=0)),
    })
    _check(f"gcn[{self_loops=}, {sort_by_degree=}]", pairs)


def _sigmoid64(t):
    return 1.0 / (1.0 + np.exp(-t))


def _tgcn_reference(model: TGCN, op64, x, h, g):
    """One TGCN step and its gradients (loss ``Σ H'·g``) in float64."""
    p = {name: t.data.astype(np.float64) for name, t in model.named_parameters()}
    f = model.out_features
    px = op64 @ x
    a = {k: px @ p[f"conv_{k}.weight"] + p[f"conv_{k}.bias"] for k in "zrh"}

    def pre(k, inp, state):
        w = p[f"lin_{k}.weight"]
        return inp @ w[:f] + state @ w[f:] + p[f"lin_{k}.bias"]

    z = _sigmoid64(pre("z", a["z"], h))
    r = _sigmoid64(pre("r", a["r"], h))
    h_tilde = np.tanh(pre("h", a["h"], r * h))
    out = z * h + (1.0 - z) * h_tilde

    grads, d_a = {}, {}
    d_h = g * z
    d_pre = g * (1.0 - z) * (1.0 - h_tilde**2)
    grads["lin_h.weight"] = np.vstack([a["h"].T @ d_pre, (r * h).T @ d_pre])
    grads["lin_h.bias"] = d_pre.sum(axis=0)
    d_a["h"] = d_pre @ p["lin_h.weight"][:f].T
    d_rh = d_pre @ p["lin_h.weight"][f:].T
    d_h += d_rh * r
    for k, gate, d_gate in (("r", r, d_rh * h), ("z", z, g * (h - h_tilde))):
        d_pre = d_gate * gate * (1.0 - gate)
        grads[f"lin_{k}.weight"] = np.vstack([a[k].T @ d_pre, h.T @ d_pre])
        grads[f"lin_{k}.bias"] = d_pre.sum(axis=0)
        d_a[k] = d_pre @ p[f"lin_{k}.weight"][:f].T
        d_h += d_pre @ p[f"lin_{k}.weight"][f:].T
    for k in "zrh":
        grads[f"conv_{k}.weight"] = px.T @ d_a[k]
        grads[f"conv_{k}.bias"] = d_a[k].sum(axis=0)
    return out, grads, d_h


def _tgcn(seed: int):
    graph, adj = _graph(False, seed)
    rng = np.random.default_rng(seed)
    init.set_seed(seed)
    model = TGCN(IN, F_OUT)
    for _, param in model.named_parameters():  # nonzero biases
        if param.ndim == 1:
            param.data[...] = rng.uniform(-1, 1, param.shape)
    x = rng.standard_normal((N, IN)).astype(np.float32)
    return model, TemporalExecutor(graph), _operator64(adj, True), x, rng


@pytest.mark.parametrize("seed", [3, 11])
def test_tgcn_step_and_gradients_within_bound(seed):
    """The general step (grad enabled, a given state): ``H'``, every
    parameter gradient and the state's gradient."""
    model, ex, op64, x, rng = _tgcn(seed)
    h = Tensor(rng.standard_normal((N, F_OUT)).astype(np.float32), requires_grad=True)
    g = rng.standard_normal((N, F_OUT)).astype(np.float32)
    ex.begin_timestamp(0)
    out = model(ex, Tensor(x), h)
    F.sum(F.mul(out, g)).backward()
    ref_out, ref_grads, ref_dh = _tgcn_reference(
        model, op64, x.astype(np.float64), h.data.astype(np.float64), g.astype(np.float64)
    )
    pairs = {"out": (out.data, ref_out), "dH": (h.grad, ref_dh)}
    pairs.update({name: (p.grad, ref_grads[name]) for name, p in model.named_parameters()})
    _check(f"tgcn general[{seed=}]", pairs)


@pytest.mark.parametrize("seed", [3, 11])
def test_tgcn_zero_state_step_within_bound(seed):
    """The unrecorded step from ``h = None`` (serving's forward)."""
    model, ex, op64, x, _ = _tgcn(seed)
    with no_grad():
        ex.begin_inference(0)
        out = model(ex, Tensor(x))
    zeros = np.zeros((N, F_OUT))
    ref_out, _, _ = _tgcn_reference(model, op64, x.astype(np.float64), zeros, zeros)
    _check(f"tgcn zero state[{seed=}]", {"out": (out.data, ref_out)})


def _sigmoid_inputs(dtype, rng):
    info = np.finfo(dtype)
    special = [0.0, -0.0, np.inf, -np.inf, info.tiny, -info.tiny, info.tiny / 8, -info.tiny / 8,
               info.max, -info.max, 20.5, -20.5, 40.0, -40.0, 88.7, -88.7, 709.0, -709.0]
    return np.concatenate([
        np.array(special, dtype=dtype),
        rng.standard_normal(100_000).astype(dtype),
        (rng.standard_normal(100_000) * 30).astype(dtype),
        np.linspace(-45, 45, 100_001, dtype=dtype),
        (rng.standard_normal(1000) * info.tiny).astype(dtype),  # subnormals
    ])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_within_bound(dtype, rng):
    """``stable_sigmoid`` against the exact logistic function (float64 for
    float32 input, ``longdouble`` for float64): within one or two ulps of 1,
    exact at ``±inf`` and ``±0``, NaN in NaN out."""
    a = _sigmoid_inputs(dtype, rng)
    wide = np.float64 if dtype is np.float32 else np.longdouble
    with np.errstate(all="ignore"):
        got = stable_sigmoid(a)
        ref = 1 / (1 + np.exp(-a.astype(wide)))
    assert got.dtype == dtype and got.shape == a.shape
    err = float(np.abs(got.astype(wide) - ref).max())
    print(f"sigmoid[{np.dtype(dtype).name}]: max abs error {err:.3e}")
    assert err <= SIGMOID_ABS_BOUND[dtype]
    edges = stable_sigmoid(np.array([np.inf, -np.inf, 0.0, -0.0, np.nan], dtype=dtype))
    assert edges[:4].tolist() == [1.0, 0.0, 0.5, 0.5] and np.isnan(edges[4])


def test_sigmoid_float64_bit_patterns_within_bound():
    """Arbitrary float64 bit patterns (every exponent, NaN, inf) and
    subnormals of both signs: within the bound wherever the input is a
    number, NaN wherever it is not."""
    rng = np.random.default_rng(20261015)
    patterns = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2**52, 50_000, dtype=np.uint64).view(np.float64) * rng.choice([-1.0, 1.0], 50_000)
    a = np.concatenate([patterns, rng.uniform(-760, 760, 200_000), subnormal])
    with np.errstate(all="ignore"):
        got = stable_sigmoid(a)
        ref = 1 / (1 + np.exp(-a.astype(np.longdouble)))
    nan = np.isnan(a)
    assert np.isnan(got[nan]).all() and not np.isnan(got[~nan]).any()
    assert float(np.abs(got[~nan].astype(np.longdouble) - ref[~nan]).max()) <= SIGMOID_ABS_BOUND[np.float64]
