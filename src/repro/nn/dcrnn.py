"""Diffusion Convolutional Recurrent Neural Network (Li et al., DCRNN).

The canonical traffic-forecasting TGNN.  Its spatial half is the
*diffusion convolution*: random walks along **both** edge directions,

    DConv(x) = Σ_{k<K} (D_O^{-1} A)^k x · W_k^{fwd} + (D_I^{-1} Aᵀ)^k x · W_k^{bwd}

which maps exactly onto the compiler's in/out mean aggregations:
``(D_O^{-1}A)x`` is the mean over *out*-neighbors and ``(D_I^{-1}Aᵀ)x`` the
mean over in-neighbors — one fused kernel each.  DCRNN is then a GRU whose
gate maps are diffusion convolutions.
"""

from __future__ import annotations

from repro.core.executor import TemporalExecutor
from repro.core.module import VertexCentricLayer
from repro.tensor import functional as F
from repro.tensor import init
from repro.tensor.nn import Module, Parameter
from repro.tensor.tensor import Tensor

__all__ = ["DConv", "DCRNN"]


def _walk_out(v):
    return v.agg_mean_out(lambda nb: nb.h)


def _walk_in(v):
    return v.agg_mean(lambda nb: nb.h)


class DConv(VertexCentricLayer):
    """K-step bidirectional diffusion convolution."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        k: int = 2,
        bias: bool = True,
    ) -> None:
        if k < 1:
            raise ValueError("diffusion steps k must be >= 1")
        super().__init__(
            _walk_out,
            feature_widths={"h": "v"},
            grad_features={"h"},
            name="dconv_walk_out",
        )
        # second compiled program for the reverse walk
        from repro.compiler.plan import compile_vertex_program

        self._walk_in_prog = compile_vertex_program(
            _walk_in, feature_widths={"h": "v"}, grad_features={"h"},
            name="dconv_walk_in",
        )
        self.in_features = in_features
        self.out_features = out_features
        self.k = k
        self.weight_self = Parameter(init.glorot_uniform((in_features, out_features)))
        for i in range(1, k):
            setattr(self, f"weight_fwd_{i}", Parameter(init.glorot_uniform((in_features, out_features))))
            setattr(self, f"weight_bwd_{i}", Parameter(init.glorot_uniform((in_features, out_features))))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, executor: TemporalExecutor, x: Tensor) -> Tensor:
        """Accumulate K bidirectional random-walk terms."""
        from repro.core.module import graph_aggregate

        out = F.matmul(x, self.weight_self)  # k = 0 term (identity walk)
        fwd_state, bwd_state = x, x
        for i in range(1, self.k):
            fwd_state = self.aggregate(executor, {"h": fwd_state})
            bwd_state = graph_aggregate(self._walk_in_prog, executor, {"h": bwd_state})
            out = F.add(out, F.matmul(fwd_state, getattr(self, f"weight_fwd_{i}")))
            out = F.add(out, F.matmul(bwd_state, getattr(self, f"weight_bwd_{i}")))
        if self.bias is not None:
            out = F.add(out, self.bias)
        return out


class DCRNN(Module):
    """GRU cell whose gates are diffusion convolutions over [x ‖ h]."""

    def __init__(self, in_features: int, out_features: int, k: int = 2, **conv_kwargs) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.conv_z = DConv(in_features + out_features, out_features, k, **conv_kwargs)
        self.conv_r = DConv(in_features + out_features, out_features, k, **conv_kwargs)
        self.conv_h = DConv(in_features + out_features, out_features, k, **conv_kwargs)

    def initial_state(self, num_nodes: int) -> Tensor:
        """Zero hidden state."""
        return F.zeros((num_nodes, self.out_features))

    def forward(self, executor: TemporalExecutor, x: Tensor, h: Tensor | None = None) -> Tensor:
        """One diffusion-GRU step at the executor's current timestamp."""
        if h is None:
            h = self.initial_state(x.shape[0])
        xh = F.concat([x, h], axis=1)
        z = F.sigmoid(self.conv_z(executor, xh))
        r = F.sigmoid(self.conv_r(executor, xh))
        x_rh = F.concat([x, F.mul(r, h)], axis=1)
        h_tilde = F.tanh(self.conv_h(executor, x_rh))
        return F.add(F.mul(z, h), F.mul(F.sub(1.0, z), h_tilde))
