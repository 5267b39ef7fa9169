"""Graph Convolutional layer (Kipf & Welling) as a vertex program.

The vertex-centric definition — with symmetric normalization and optional
self-loops folded into the program so the whole aggregation is one fused
kernel::

    out(v) = Σ_{u→v} h_u·norm_u·norm_v  (+ h_v·norm_v²  with self-loops)

``norm = 1/√(deg+1)`` (or ``1/√max(deg,1)`` without self-loops) is a
structural constant recomputed per snapshot from the executor's context and
cached on it; only ``h`` receives gradients, so the compiler's saved-tensor
analysis keeps just ``norm`` on the State Stack per timestamp.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.runtime import GraphContext
from repro.core.executor import TemporalExecutor
from repro.core.module import VertexCentricLayer
from repro.tensor import functional as F
from repro.tensor import init
from repro.tensor.nn import Parameter
from repro.tensor.tensor import Tensor

__all__ = ["GCNConv", "gcn_norm"]


def gcn_norm(ctx: GraphContext, add_self_loops: bool) -> np.ndarray:
    """Per-snapshot symmetric-normalization vector, cached on the context."""
    attr = "_gcn_norm_sl" if add_self_loops else "_gcn_norm"
    cached = getattr(ctx, attr, None)
    if cached is None:
        deg = ctx.in_deg + 1 if add_self_loops else np.maximum(ctx.in_deg, 1)
        cached = (1.0 / np.sqrt(deg)).astype(np.float32)
        setattr(ctx, attr, cached)
    return cached


def _gcn_program_self_loops(v):
    return v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm + v.h * v.norm * v.norm


def _gcn_program(v):
    return v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm


def _gcn_program_weighted(v):
    """Edge-weighted variant (no self-loops): Definition II.1 allows edge
    features to change per timestamp; ``w`` is bound per aggregation call."""
    return v.agg_sum(lambda nb: nb.h * nb.norm * nb.edge.w) * v.norm


class GCNConv(VertexCentricLayer):
    """Kipf-Welling graph convolution as one fused vertex program."""
    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        add_self_loops: bool = True,
        edge_weighted: bool = False,
        state_stack_opt: bool = True,
    ) -> None:
        if edge_weighted and add_self_loops:
            raise ValueError(
                "edge_weighted GCN has no self-loop weights; pass "
                "add_self_loops=False"
            )
        if edge_weighted:
            fn, name = _gcn_program_weighted, "gcn_weighted"
        elif add_self_loops:
            fn, name = _gcn_program_self_loops, "gcn_self_loops"
        else:
            fn, name = _gcn_program, "gcn"
        super().__init__(
            fn,
            feature_widths={"h": "v", "norm": "s"},
            grad_features={"h"},
            name=name,
            state_stack_opt=state_stack_opt,
        )
        self.in_features = in_features
        self.out_features = out_features
        self.add_self_loops = add_self_loops
        self.edge_weighted = edge_weighted
        self.weight = Parameter(init.glorot_uniform((in_features, out_features)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(
        self,
        executor: TemporalExecutor,
        x: Tensor,
        edge_weight: np.ndarray | None = None,
    ) -> Tensor:
        """``edge_weight``: label-indexed per-edge weights, required iff the
        layer was built with ``edge_weighted=True``; may differ every
        timestamp (static-temporal edge signals, Definition II.1)."""
        ctx = executor.current_context()
        norm = gcn_norm(ctx, self.add_self_loops)
        h = F.matmul(x, self.weight)
        if self.edge_weighted:
            if edge_weight is None:
                raise ValueError("edge_weighted GCNConv needs edge_weight")
            out = self.aggregate(executor, {"h": h, "norm": norm}, {"w": edge_weight})
        else:
            out = self.aggregate(executor, {"h": h, "norm": norm})
        if self.bias is not None:
            out = F.add(out, self.bias)
        return out
