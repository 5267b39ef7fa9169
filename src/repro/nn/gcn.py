"""Graph Convolutional layer (Kipf & Welling) as a vertex program.

The vertex-centric definition — with symmetric normalization and optional
self-loops folded into the program so the whole aggregation is one fused
kernel::

    out(v) = Σ_{u→v} h_u·norm_u·norm_v  (+ h_v·norm_v²  with self-loops)

``norm = 1/√(deg+1)`` (or ``1/√max(deg,1)`` without self-loops) is a
structural constant recomputed per snapshot from the executor's context and
cached on it, read-only.  Only ``h`` receives gradients, so the compiler
folds ``norm`` into the aggregation operator
(:func:`~repro.compiler.passes.fold_scales`): each direction is one ``spmm``
over edge data ``norm_u·norm_v``, plus ``h_v·norm_v²`` for the self-loops.
The layer binds ``norm`` as a function of the context, so the State Stack
keeps that function, not an ``N``-float array, per aggregation.
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

__all__ = ["GCNConv", "gcn_norm", "gcn_norm_self_loops", "gcn_norm_plain"]


def gcn_norm(ctx: GraphContext, add_self_loops: bool) -> np.ndarray:
    """Per-snapshot symmetric-normalization vector, cached on the context
    and read-only (the folded operator keeps its weights while it is)."""
    attr = "_gcn_norm_sl" if add_self_loops else "_gcn_norm"
    cached = getattr(ctx, attr, None)
    if cached is None:
        deg = ctx.in_deg + 1 if add_self_loops else np.maximum(ctx.in_deg, 1)
        cached = (1.0 / np.sqrt(deg)).astype(np.float32)
        cached.flags.writeable = False
        setattr(ctx, attr, cached)
    return cached


def gcn_norm_self_loops(ctx: GraphContext) -> np.ndarray:
    """``gcn_norm`` with self-loops: the ``norm`` binding a layer passes."""
    return gcn_norm(ctx, True)


def gcn_norm_plain(ctx: GraphContext) -> np.ndarray:
    """``gcn_norm`` without self-loops: the ``norm`` binding a layer passes."""
    return gcn_norm(ctx, False)


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
        if self.edge_weighted and edge_weight is None:
            raise ValueError("edge_weighted GCNConv needs edge_weight")
        norm = gcn_norm_self_loops if self.add_self_loops else gcn_norm_plain
        edge_feats = {"w": edge_weight} if self.edge_weighted else None
        # x @ W goes straight into the aggregation, so it is freed before
        # the bias add.
        out = self.aggregate(executor, {"h": F.matmul(x, self.weight), "norm": norm}, edge_feats)
        if self.bias is not None:
            out = F.add(out, self.bias)
        return out
