"""GraphSAGE layer (mean aggregator variant)."""

from __future__ import annotations

from repro.core.executor import TemporalExecutor
from repro.core.module import VertexCentricLayer
from repro.tensor import functional as F
from repro.tensor import init
from repro.tensor.nn import Parameter
from repro.tensor.tensor import Tensor

__all__ = ["SAGEConv"]


def _sage_mean_program(v):
    return v.agg_mean(lambda nb: nb.h)


class SAGEConv(VertexCentricLayer):
    """``out = x·W_self + mean_{u→v}(h_u)·W_nb + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
    ) -> None:
        super().__init__(
            _sage_mean_program,
            feature_widths={"h": "v"},
            grad_features={"h"},
            name="sage_mean",
        )
        self.in_features = in_features
        self.out_features = out_features
        self.weight_self = Parameter(init.glorot_uniform((in_features, out_features)))
        self.weight_nb = Parameter(init.glorot_uniform((in_features, out_features)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, executor: TemporalExecutor, x: Tensor) -> Tensor:
        """Self projection plus projected neighbor mean."""
        nb_mean = self.aggregate(executor, {"h": x})
        out = F.add(F.matmul(x, self.weight_self), F.matmul(nb_mean, self.weight_nb))
        if self.bias is not None:
            out = F.add(out, self.bias)
        return out
