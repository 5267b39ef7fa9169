"""TGCN: Temporal Graph Convolutional Network (Zhao et al.).

The model both the paper and this reproduction benchmark with ("the default
configuration of TGCN since it serves as a basic TGNN model with both
temporal and GNN components").  Follows the PyG-T structure: one GCN
convolution per GRU gate, concatenated with the hidden state through a
linear map::

    z  = σ(W_z·[gcn_z(X) ‖ H])
    r  = σ(W_r·[gcn_r(X) ‖ H])
    h̃  = tanh(W_h·[gcn_h(X) ‖ r⊙H])
    H' = z⊙H + (1−z)⊙h̃

The three convolutions run first (z, r, h order, so the State Stack's
pushes and LIFO pops are those of one aggregation per gate); everything
after them is one tape node, :class:`TGCNGates`, which PyG-T's TGCN
(:mod:`repro.baselines.pygt.tgcn`) uses too.  Each ``W·[a ‖ H]`` is
computed as ``a @ W[:F] + H @ W[F:]`` over row views of the one weight, so
no ``N×2F`` concatenation is filled in either direction; against the
concatenated product that moves bits within the numeric contract (DESIGN.md
"The numeric contract"; ``tests/test_numeric_contract.py`` holds the
bound).  The node keeps ``a_z, a_r, a_h, H, z, r`` per timestamp, six
``N×F`` arrays; backward rebuilds ``h̃`` (``a_h @ W_h[:F] + (r⊙H) @
W_h[F:]`` and a ``tanh``), and a recorded step from ``h is None`` passes a
0-d zero as ``H``, which every read of ``H`` broadcasts, so the first step
of a sequence saves no ``N×F`` zeros.  It performs the float operations of
the op-by-op composition on the two weight halves (``MatMul``, ``Add``,
``Sigmoid`` / ``Tanh``, ``Mul`` / ``Sub``) in the tape's order
(``tests/test_tgcn_gates.py`` checks every output and gradient bit).

The hidden state threads through the tensor-engine tape, so backward over a
sequence is true BPTT; the graph aggregations inside each gate store their
(pruned) state on the executor's State Stack per timestamp.

An unrecorded step from the zero initial state (``no_grad`` and ``h is
None``: every serving forward, the serial oracle, the first step of an
evaluation roll) runs two convolutions, not three: at ``H = 0`` the reset
gate only multiplies zeros, so ``conv_r`` and ``lin_r`` are dead and
:func:`tgcn_zero_state_gates` computes ``z`` and ``h̃`` from the ``a @ W[:F]``
halves alone, bit for bit the general step's output.  Training (grad
enabled) and any given state always take the general step.
"""

from __future__ import annotations

import numpy as np

from repro.core.executor import TemporalExecutor
from repro.device import current_device
from repro.nn.gcn import GCNConv
from repro.tensor import functional as F
from repro.tensor.nn import Linear, Module
from repro.tensor.ops import Function, _unbroadcast, stable_sigmoid
from repro.tensor.tensor import Tensor, is_grad_enabled

__all__ = ["TGCN", "TGCNGates", "TGCNZeroStateGates", "tgcn_gates", "tgcn_zero_state_gates"]


def _gate_pre(a: np.ndarray, h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[a ‖ H] @ W + b`` as ``a @ W[:F] + H @ W[F:] + b`` over row views of
    the one weight, so no ``N×2F`` concatenation is filled.  A 0-d ``H`` is
    the zero state, whose half product is ``+0`` wherever ``W`` is finite."""
    f = a.shape[1]
    pre = a @ w[:f]
    pre += h @ w[f:] if h.ndim else h
    pre += b
    return pre


def _weight_grad(a: np.ndarray, h: np.ndarray, d_pre: np.ndarray) -> np.ndarray:
    """``[a ‖ H]ᵀ @ d_pre`` as its two half products, written into the rows
    of one ``2F×F`` gradient (a 0-d zero ``H`` contributes zeros)."""
    f = a.shape[1]
    grad = np.empty((2 * f, d_pre.shape[1]), dtype=d_pre.dtype)
    np.matmul(a.T, d_pre, out=grad[:f])
    if h.ndim:
        np.matmul(h.T, d_pre, out=grad[f:])
    else:
        grad[f:] = 0.0
    return grad


class TGCNGates(Function):
    """The GRU gate tail of one TGCN step as one tape node.

    Inputs ``a_z, a_r, a_h, H, W_z, b_z, W_r, b_r, W_h, b_h``; output ``H'``.
    Each gate's ``[a ‖ H] @ W`` is ``a @ W[:F] + H @ W[F:]`` over row views of
    its one weight (DESIGN.md "The numeric contract"), then ``+ b``, sigmoid /
    tanh, then ``z·H + (1−z)·h̃``.  These are the float operations of the
    op-by-op composition on the two weight halves, in its order; backward
    follows the order in which the tape walks it: gates h̃, r, z, and
    ``H``'s four contributions summed in the tape's accumulation order
    (``tests/test_tgcn_gates.py`` checks every bit against that composition).

    It keeps ``a_z, a_r, a_h, H, z, r``.  ``z`` and ``r`` are adopted into the
    allocator only when the node is recorded; under ``no_grad`` it saves
    nothing.  ``h̃`` is not kept: backward rebuilds it with the forward's
    float operations and adopts it while it holds it.  Rebuilding ``r`` or
    ``z`` as well would cost a GEMM and a sigmoid each per step.  ``H`` may
    be a 0-d zero (the first recorded step from ``h is None``): every read of
    it broadcasts, and its half products are zeros, so the step's bits are
    those of an ``N×F`` zeros state wherever the weights are finite.
    """

    def forward(self, a_z, a_r, a_h, h, w_z, b_z, w_r, b_r, w_h, b_h) -> np.ndarray:
        z = stable_sigmoid(_gate_pre(a_z, h, w_z, b_z))
        pre = _gate_pre(a_r, h, w_r, b_r)
        r = stable_sigmoid(pre)
        h_tilde = _gate_pre(a_h, r * h, w_h, b_h)
        np.tanh(h_tilde, out=h_tilde)
        out = z * h
        keep = np.subtract(1.0, z, out=pre)
        keep *= h_tilde
        out += keep
        self.save_for_backward(a_z, a_r, a_h, h, z, r, w_z, b_z, w_r, b_r, w_h, b_h)
        return out

    def attach(self, out: Tensor, inputs: tuple[Tensor, ...]) -> bool:
        if not super().attach(out, inputs):
            self.saved = ()
            return False
        alloc = current_device().alloc
        for gate in self.saved[4:6]:  # z, r: the arrays no tensor owns
            alloc.adopt(gate, tag="tensor")
        return True

    def backward(self, grad: np.ndarray):
        a_z, a_r, a_h, h, z, r, w_z, b_z, w_r, b_r, w_h, b_h = self.saved
        need_h = self.needs_input_grad[3]
        f = a_z.shape[1]
        # Rebuild h̃ = tanh(a_h @ W_h[:F] + (r·H) @ W_h[F:] + b_h) with the
        # forward's float operations; r·H is also W_h's gradient operand.
        r_h = r * h
        h_tilde = _gate_pre(a_h, r_h, w_h, b_h)
        np.tanh(h_tilde, out=h_tilde)
        current_device().alloc.adopt(h_tilde, tag="tensor")
        # H' = z·H + (1−z)·h̃
        d_pre = np.subtract(1.0, z)
        d_pre *= grad
        d_z = grad * h_tilde
        np.negative(d_z, out=d_z)
        d_z += grad * h
        d_h = grad * z if need_h else None
        # 1 − h̃², in h̃'s own buffer: nothing reads h̃ after this
        scratch = np.multiply(h_tilde, h_tilde, out=h_tilde)
        np.subtract(1.0, scratch, out=scratch)
        d_pre *= scratch
        g_w_h = _weight_grad(a_h, r_h, d_pre)
        g_b_h = _unbroadcast(d_pre, b_h.shape)
        g_a_h = d_pre @ w_h[:f].T
        d_r_h = d_pre @ w_h[f:].T
        np.multiply(d_r_h, h, out=d_pre)
        if need_h:
            d_h += np.multiply(d_r_h, r, out=scratch)
        # r = σ(a_r @ W_r[:F] + H @ W_r[F:] + b_r)
        d_pre *= r
        d_pre *= np.subtract(1.0, r, out=scratch)
        g_w_r = _weight_grad(a_r, h, d_pre)
        g_b_r = _unbroadcast(d_pre, b_r.shape)
        g_a_r = d_pre @ w_r[:f].T
        if need_h:
            d_h += d_pre @ w_r[f:].T
        # z = σ(a_z @ W_z[:F] + H @ W_z[F:] + b_z)
        d_z *= z
        d_z *= np.subtract(1.0, z, out=scratch)
        g_w_z = _weight_grad(a_z, h, d_z)
        g_b_z = _unbroadcast(d_z, b_z.shape)
        g_a_z = d_z @ w_z[:f].T
        if need_h:
            d_h += d_z @ w_z[f:].T
        return g_a_z, g_a_r, g_a_h, d_h, g_w_z, g_b_z, g_w_r, g_b_r, g_w_h, g_b_h


def tgcn_gates(
    a_z: Tensor, a_r: Tensor, a_h: Tensor, h: Tensor, lin_z: Linear, lin_r: Linear, lin_h: Linear
) -> Tensor:
    """``H'`` from the three gate aggregations and the previous state."""
    return TGCNGates.apply(
        a_z, a_r, a_h, h, lin_z.weight, lin_z.bias, lin_r.weight, lin_r.bias, lin_h.weight, lin_h.bias
    )


class TGCNZeroStateGates(Function):
    """``H'`` of an unrecorded TGCN step from the zero state, without the reset gate.

    Inputs ``a_z, a_h, W_z, b_z, W_h, b_h``.  At ``H = 0`` the reset gate only
    multiplies zeros and each gate's ``H @ W[F:]`` half is zero, so ``z`` and
    ``h̃`` are ``σ(a_z @ W_z[:F] + b_z)`` and ``tanh(a_h @ W_h[:F] + b_h)``
    with no zeros buffer, and ``H' = (1−z)·h̃ + 0.0``; the ``+ 0.0`` is the
    general path's ``z·0 + …`` and turns a ``-0.0`` product into ``+0.0`` as
    it does.  Bit-identical to :class:`TGCNGates` on an explicit zero state
    unless the reset gate's pre-activation holds a NaN (that path then
    returns NaN rows, this one does not) or a weight is not finite.  It has
    no backward: callers apply it only under ``no_grad``.
    """

    def forward(self, a_z, a_h, w_z, b_z, w_h, b_h) -> np.ndarray:
        f = a_z.shape[1]
        pre = a_z @ w_z[:f]
        pre += b_z
        z = stable_sigmoid(pre)
        np.matmul(a_h, w_h[:f], out=pre)
        pre += b_h
        h_tilde = np.tanh(pre, out=pre)
        out = np.subtract(1.0, z, out=z)
        out *= h_tilde
        out += 0.0
        return out


def tgcn_zero_state_gates(a_z: Tensor, a_h: Tensor, lin_z: Linear, lin_h: Linear) -> Tensor:
    """``H'`` from the update and candidate aggregations at ``H = 0`` (no grad)."""
    return TGCNZeroStateGates.apply(a_z, a_h, lin_z.weight, lin_z.bias, lin_h.weight, lin_h.bias)


class TGCN(Module):
    """The benchmark TGNN: one GCN per GRU gate (see module docstring)."""
    def __init__(self, in_features: int, out_features: int, add_self_loops: bool = True, **conv_kwargs) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.conv_z = GCNConv(in_features, out_features, add_self_loops=add_self_loops, **conv_kwargs)
        self.lin_z = Linear(2 * out_features, out_features)
        self.conv_r = GCNConv(in_features, out_features, add_self_loops=add_self_loops, **conv_kwargs)
        self.lin_r = Linear(2 * out_features, out_features)
        self.conv_h = GCNConv(in_features, out_features, add_self_loops=add_self_loops, **conv_kwargs)
        self.lin_h = Linear(2 * out_features, out_features)

    def initial_state(self, num_nodes: int) -> Tensor:
        """Zero hidden state for ``num_nodes`` vertices."""
        return F.zeros((num_nodes, self.out_features))

    def forward(self, executor: TemporalExecutor, x: Tensor, h: Tensor | None = None) -> Tensor:
        """One recurrent step at the executor's current timestamp.

        Unrecorded from the zero state (``no_grad``, ``h is None``) the step
        runs ``conv_z`` and ``conv_h`` only: the reset gate multiplies zeros
        (:func:`tgcn_zero_state_gates`).  Recorded, it runs the general step
        on a 0-d zero state, which :class:`TGCNGates` broadcasts, so the tape
        keeps 4 bytes instead of an ``N×F`` zeros array."""
        if h is None:
            if not is_grad_enabled():
                a_z = self.conv_z(executor, x)
                return tgcn_zero_state_gates(a_z, self.conv_h(executor, x), self.lin_z, self.lin_h)
            h = F.zeros(())
        a_z = self.conv_z(executor, x)
        a_r = self.conv_r(executor, x)
        a_h = self.conv_h(executor, x)
        return tgcn_gates(a_z, a_r, a_h, h, self.lin_z, self.lin_r, self.lin_h)
