"""Chebyshev spectral convolution (Defferrard et al.), order K.

One of the spatial layers PyG-T composes its recurrences from (paper §III:
"GCN, ChebConv, RGCN").  With the standard ``λ_max ≈ 2`` approximation the
scaled Laplacian is ``L̂ = L − I = −D^{-1/2} A D^{-1/2}``, so applying it is
a single compiled vertex program, and the Chebyshev recurrence

    T_0 = x,   T_1 = L̂x,   T_k = 2·L̂·T_{k-1} − T_{k-2}

runs at the layer level through the tensor engine (each hop is one kernel
launch; its saved state goes through the executor's State Stack like any
other aggregation).
"""

from __future__ import annotations

import numpy as np

from repro.core.executor import TemporalExecutor
from repro.core.module import VertexCentricLayer
from repro.nn.gcn import gcn_norm
from repro.tensor import functional as F
from repro.tensor import init
from repro.tensor.nn import Parameter
from repro.tensor.tensor import Tensor

__all__ = ["ChebConv"]


def _scaled_laplacian_apply(v):
    """L̂x = −(norm-weighted neighbor sum) under the λ_max=2 approximation."""
    return -(v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm)


class ChebConv(VertexCentricLayer):
    """``out = Σ_{k<K} T_k(L̂)·x · W_k + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        k: int = 2,
        bias: bool = True,
    ) -> None:
        if k < 1:
            raise ValueError("Chebyshev order k must be >= 1")
        super().__init__(
            _scaled_laplacian_apply,
            feature_widths={"h": "v", "norm": "s"},
            grad_features={"h"},
            name="cheb_laplacian",
        )
        self.in_features = in_features
        self.out_features = out_features
        self.k = k
        for i in range(k):
            setattr(self, f"weight_{i}", Parameter(init.glorot_uniform((in_features, out_features))))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def _lap(self, executor: TemporalExecutor, x: Tensor, norm: np.ndarray) -> Tensor:
        return self.aggregate(executor, {"h": x, "norm": norm})

    def forward(self, executor: TemporalExecutor, x: Tensor) -> Tensor:
        """Run the K-term Chebyshev recurrence at the current snapshot."""
        ctx = executor.current_context()
        norm = gcn_norm(ctx, add_self_loops=False)
        t_prev_prev = x  # T_0
        out = F.matmul(t_prev_prev, self.weight_0)
        if self.k > 1:
            t_prev = self._lap(executor, x, norm)  # T_1
            out = F.add(out, F.matmul(t_prev, self.weight_1))
            for i in range(2, self.k):
                t_curr = F.sub(F.mul(self._lap(executor, t_prev, norm), 2.0), t_prev_prev)
                out = F.add(out, F.matmul(t_curr, getattr(self, f"weight_{i}")))
                t_prev_prev, t_prev = t_prev, t_curr
        if self.bias is not None:
            out = F.add(out, self.bias)
        return out
