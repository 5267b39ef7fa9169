"""Graph Attention layer (Veličković et al.), single head.

Attention scores are per-edge *scalars*, so the whole attention pipeline
(leaky-relu score, softmax over in-edges, weighted aggregation) stays in
edge-scalar + node space — the compiler rejects any formulation that would
need an ``E×F`` tensor.
"""

from __future__ import annotations

from repro.core.executor import TemporalExecutor
from repro.core.module import VertexCentricLayer
from repro.compiler.symbols import vfn
from repro.tensor import functional as F
from repro.tensor import init
from repro.tensor.nn import Parameter
from repro.tensor.tensor import Tensor

__all__ = ["GATConv"]


def _gat_program(v):
    alpha = v.edge_softmax(lambda nb: vfn.leaky_relu(nb.el + v.er, slope=0.2))
    return v.agg_sum(lambda nb: nb.ft * alpha)


class GATConv(VertexCentricLayer):
    """Multi-head graph attention.

    Each head has its own projection and attention vectors; per-head
    attention stays a per-edge *scalar* (one compiled aggregation per head,
    all sharing the same cached kernel).  Head outputs are concatenated
    (``concat=True``, giving ``heads·out_features`` columns) or averaged.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        heads: int = 1,
        concat: bool = True,
        bias: bool = True,
    ) -> None:
        if heads < 1:
            raise ValueError("heads must be >= 1")
        super().__init__(
            _gat_program,
            feature_widths={"ft": "v", "el": "s", "er": "s"},
            grad_features={"ft", "el", "er"},
            name="gat",
        )
        self.in_features = in_features
        self.out_features = out_features
        self.heads = heads
        self.concat = concat
        for h in range(heads):
            setattr(self, f"weight_{h}", Parameter(init.glorot_uniform((in_features, out_features))))
            setattr(self, f"attn_l_{h}", Parameter(init.glorot_uniform((out_features, 1))))
            setattr(self, f"attn_r_{h}", Parameter(init.glorot_uniform((out_features, 1))))
        bias_dim = out_features * heads if concat else out_features
        self.bias = Parameter(init.zeros((bias_dim,))) if bias else None

    # single-head attribute aliases keep the common case ergonomic
    @property
    def weight(self) -> Parameter:
        """Head 0's projection (single-head convenience alias)."""
        return self.weight_0

    @property
    def attn_l(self) -> Parameter:
        """Head 0's source attention vector."""
        return self.attn_l_0

    @property
    def attn_r(self) -> Parameter:
        """Head 0's destination attention vector."""
        return self.attn_r_0

    def _head(self, executor: TemporalExecutor, x: Tensor, h: int) -> Tensor:
        ft = F.matmul(x, getattr(self, f"weight_{h}"))
        el = F.reshape(F.matmul(ft, getattr(self, f"attn_l_{h}")), (-1,))
        er = F.reshape(F.matmul(ft, getattr(self, f"attn_r_{h}")), (-1,))
        return self.aggregate(executor, {"ft": ft, "el": el, "er": er})

    def forward(self, executor: TemporalExecutor, x: Tensor) -> Tensor:
        """Attend per head; concatenate or average the head outputs."""
        outs = [self._head(executor, x, h) for h in range(self.heads)]
        if len(outs) == 1:
            out = outs[0]
        elif self.concat:
            out = F.concat(outs, axis=1)
        else:
            out = outs[0]
            for o in outs[1:]:
                out = F.add(out, o)
            out = F.mul(out, 1.0 / self.heads)
        if self.bias is not None:
            out = F.add(out, self.bias)
        return out
