"""PyG-T's TGCN: identical gate math to :class:`repro.nn.TGCN`, built on
the edge-parallel convolution, so the two frameworks' losses coincide and
the benchmark isolates the execution strategy.

Everything after the three convolutions is the same tape node STGraph's
TGCN uses (:class:`repro.nn.tgcn.TGCNGates`), so the non-graph part of a
step keeps the same arrays on both sides and a memory or time difference
between the frameworks is the graph part's.  An unrecorded step from the
zero state skips ``conv_r`` through the same
:func:`repro.nn.tgcn.tgcn_zero_state_gates` as STGraph's TGCN, and a
recorded one saves the same 0-d zero state."""

from __future__ import annotations

import numpy as np

from repro.baselines.pygt.gcn_conv import PyGGCNConv
from repro.nn.tgcn import tgcn_gates, tgcn_zero_state_gates
from repro.tensor import functional as F
from repro.tensor.nn import Linear, Module
from repro.tensor.tensor import Tensor, is_grad_enabled

__all__ = ["PyGTTGCN", "PyGTGConvGRU"]


class PyGTGConvGRU(Module):
    """PyG-T's GConvGRU on the edge-parallel convolution (gate math
    identical to :class:`repro.nn.GConvGRU` for cross-framework parity)."""

    def __init__(self, in_features: int, out_features: int, add_self_loops: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.conv_xz = PyGGCNConv(in_features, out_features, add_self_loops=add_self_loops)
        self.conv_hz = PyGGCNConv(out_features, out_features, bias=False, add_self_loops=add_self_loops)
        self.conv_xr = PyGGCNConv(in_features, out_features, add_self_loops=add_self_loops)
        self.conv_hr = PyGGCNConv(out_features, out_features, bias=False, add_self_loops=add_self_loops)
        self.conv_xh = PyGGCNConv(in_features, out_features, add_self_loops=add_self_loops)
        self.conv_hh = PyGGCNConv(out_features, out_features, bias=False, add_self_loops=add_self_loops)

    def initial_state(self, num_nodes: int) -> Tensor:
        """Zero hidden state."""
        return F.zeros((num_nodes, self.out_features))

    def forward(self, x: Tensor, edge_index: np.ndarray, h: Tensor | None = None) -> Tensor:
        """One recurrent step at one timestamp."""
        if h is None:
            h = self.initial_state(x.shape[0])
        z = F.sigmoid(F.add(self.conv_xz(x, edge_index), self.conv_hz(h, edge_index)))
        r = F.sigmoid(F.add(self.conv_xr(x, edge_index), self.conv_hr(h, edge_index)))
        h_tilde = F.tanh(F.add(self.conv_xh(x, edge_index), self.conv_hh(F.mul(r, h), edge_index)))
        return F.add(F.mul(z, h), F.mul(F.sub(1.0, z), h_tilde))


class PyGTTGCN(Module):
    """PyG-T's TGCN: identical gate math to repro.nn.TGCN on edge-parallel convs."""
    def __init__(self, in_features: int, out_features: int, add_self_loops: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.conv_z = PyGGCNConv(in_features, out_features, add_self_loops=add_self_loops)
        self.lin_z = Linear(2 * out_features, out_features)
        self.conv_r = PyGGCNConv(in_features, out_features, add_self_loops=add_self_loops)
        self.lin_r = Linear(2 * out_features, out_features)
        self.conv_h = PyGGCNConv(in_features, out_features, add_self_loops=add_self_loops)
        self.lin_h = Linear(2 * out_features, out_features)

    def initial_state(self, num_nodes: int) -> Tensor:
        """Zero hidden state."""
        return F.zeros((num_nodes, self.out_features))

    def forward(self, x: Tensor, edge_index: np.ndarray, h: Tensor | None = None) -> Tensor:
        """One recurrent step at one timestamp; unrecorded from the zero
        state it runs ``conv_z`` and ``conv_h`` only, and recorded it passes
        a 0-d zero state, as :meth:`repro.nn.TGCN.forward` does."""
        if h is None:
            if not is_grad_enabled():
                a_z = self.conv_z(x, edge_index)
                return tgcn_zero_state_gates(a_z, self.conv_h(x, edge_index), self.lin_z, self.lin_h)
            h = F.zeros(())
        a_z = self.conv_z(x, edge_index)
        a_r = self.conv_r(x, edge_index)
        a_h = self.conv_h(x, edge_index)
        return tgcn_gates(a_z, a_r, a_h, h, self.lin_z, self.lin_r, self.lin_h)
