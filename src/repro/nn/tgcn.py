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
(:mod:`repro.baselines.pygt.tgcn`) uses too.  It keeps only what its
backward reads (``a_z, a_r, a_h, H, z, r, h̃``: seven ``N×F`` arrays per
timestamp) and performs the float operations of the op-by-op composition
(``Concat``, ``Linear``, ``Sigmoid`` / ``Tanh``, ``Mul`` / ``Sub`` /
``Add``) in the tape's order, so every output and gradient bit is that
composition's (``tests/test_tgcn_gates.py`` checks this against
``tests/_tgcn_reference.py``).

The hidden state threads through the tensor-engine tape, so backward over a
sequence is true BPTT; the graph aggregations inside each gate store their
(pruned) state on the executor's State Stack per timestamp.
"""

from __future__ import annotations

import numpy as np

from repro.core.executor import TemporalExecutor
from repro.device import current_device
from repro.nn.gcn import GCNConv
from repro.tensor import functional as F
from repro.tensor.nn import Linear, Module
from repro.tensor.ops import Function, _unbroadcast, stable_sigmoid
from repro.tensor.tensor import Tensor

__all__ = ["TGCN", "TGCNGates", "tgcn_gates"]


class TGCNGates(Function):
    """The GRU gate tail of one TGCN step as one tape node.

    Inputs ``a_z, a_r, a_h, H, W_z, b_z, W_r, b_r, W_h, b_h``; output ``H'``.
    Forward is the unfused composition's float operations in its order:
    ``[a ‖ H]`` concatenated into one ``N×2F`` scratch buffer, ``@ W``,
    ``+ b``, sigmoid / tanh, then ``z·H + (1−z)·h̃``.  Backward follows the
    order in which the tape walks that composition: gates h̃, r, z; ``H``'s
    four contributions summed in the tape's accumulation order; each weight
    gradient one ``[a ‖ H]ᵀ @ dpre`` over the rebuilt concatenation (two
    half products stacked are not bit-identical to it on every shape).
    ``z``, ``r`` and ``h̃`` are adopted into the allocator only when the node
    is recorded; under ``no_grad`` it saves nothing.
    """

    def forward(self, a_z, a_r, a_h, h, w_z, b_z, w_r, b_r, w_h, b_h) -> np.ndarray:
        f = h.shape[1]
        cat = np.empty((h.shape[0], 2 * f), dtype=h.dtype)
        cat[:, :f] = a_z
        cat[:, f:] = h
        pre = cat @ w_z
        pre += b_z
        z = stable_sigmoid(pre)
        cat[:, :f] = a_r
        np.matmul(cat, w_r, out=pre)
        pre += b_r
        r = stable_sigmoid(pre)
        cat[:, :f] = a_h
        np.multiply(r, h, out=cat[:, f:])
        np.matmul(cat, w_h, out=pre)
        pre += b_h
        h_tilde = np.tanh(pre, out=pre)
        out = z * h
        keep = np.subtract(1.0, z, out=cat[:, :f])
        keep *= h_tilde
        out += keep
        self.save_for_backward(a_z, a_r, a_h, h, z, r, h_tilde, w_z, b_z, w_r, b_r, w_h, b_h)
        return out

    def attach(self, out: Tensor, inputs: tuple[Tensor, ...]) -> bool:
        if not super().attach(out, inputs):
            self.saved = ()
            return False
        alloc = current_device().alloc
        for gate in self.saved[4:7]:  # z, r, h̃: the arrays no tensor owns
            alloc.adopt(gate, tag="tensor")
        return True

    def backward(self, grad: np.ndarray):
        a_z, a_r, a_h, h, z, r, h_tilde, w_z, b_z, w_r, b_r, w_h, b_h = self.saved
        need_h = self.needs_input_grad[3]
        f = h.shape[1]
        # H' = z·H + (1−z)·h̃
        d_pre = np.subtract(1.0, z)
        d_pre *= grad
        d_z = grad * h_tilde
        np.negative(d_z, out=d_z)
        d_z += grad * h
        d_h = grad * z if need_h else None
        # h̃ = tanh([a_h ‖ r·H] @ W_h + b_h)
        scratch = h_tilde * h_tilde
        np.subtract(1.0, scratch, out=scratch)
        d_pre *= scratch
        cat = np.empty((h.shape[0], 2 * f), dtype=h.dtype)
        cat[:, :f] = a_h
        np.multiply(r, h, out=cat[:, f:])
        g_w_h = cat.T @ d_pre
        g_b_h = _unbroadcast(d_pre, b_h.shape)
        d_cat = np.matmul(d_pre, w_h.T, out=cat)
        g_a_h = d_cat[:, :f].copy()
        np.multiply(d_cat[:, f:], h, out=d_pre)
        if need_h:
            d_h += np.multiply(d_cat[:, f:], r, out=scratch)
        # r = σ([a_r ‖ H] @ W_r + b_r)
        d_pre *= r
        d_pre *= np.subtract(1.0, r, out=scratch)
        cat[:, :f] = a_r
        cat[:, f:] = h
        g_w_r = cat.T @ d_pre
        g_b_r = _unbroadcast(d_pre, b_r.shape)
        d_cat = np.matmul(d_pre, w_r.T, out=cat)
        g_a_r = d_cat[:, :f].copy()
        if need_h:
            d_h += d_cat[:, f:]
        # z = σ([a_z ‖ H] @ W_z + b_z)
        d_z *= z
        d_z *= np.subtract(1.0, z, out=scratch)
        cat[:, :f] = a_z
        cat[:, f:] = h
        g_w_z = cat.T @ d_z
        g_b_z = _unbroadcast(d_z, b_z.shape)
        d_cat = np.matmul(d_z, w_z.T, out=cat)
        g_a_z = d_cat[:, :f].copy()
        if need_h:
            d_h += d_cat[:, f:]
        return g_a_z, g_a_r, g_a_h, d_h, g_w_z, g_b_z, g_w_r, g_b_r, g_w_h, g_b_h


def tgcn_gates(
    a_z: Tensor, a_r: Tensor, a_h: Tensor, h: Tensor, lin_z: Linear, lin_r: Linear, lin_h: Linear
) -> Tensor:
    """``H'`` from the three gate aggregations and the previous state."""
    return TGCNGates.apply(
        a_z, a_r, a_h, h, lin_z.weight, lin_z.bias, lin_r.weight, lin_r.bias, lin_h.weight, lin_h.bias
    )


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
        """One recurrent step at the executor's current timestamp."""
        if h is None:
            h = self.initial_state(x.shape[0])
        a_z = self.conv_z(executor, x)
        a_r = self.conv_r(executor, x)
        a_h = self.conv_h(executor, x)
        return tgcn_gates(a_z, a_r, a_h, h, self.lin_z, self.lin_r, self.lin_h)
