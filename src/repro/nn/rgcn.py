"""Relational GCN (Schlichtkrull et al.), mentioned alongside GCN/ChebConv
in paper §III as a PyG-T building block.

Each relation ``r`` has its own weight matrix; messages flow only along
edges of that relation, normalized by the per-relation in-degree::

    out(v) = x_v·W_self + Σ_r Σ_{u →_r v} (1/c_{v,r}) · x_u·W_r

Relation routing uses the compiler's edge-feature mechanism: a 0/1 mask per
relation (label-indexed, converted to canonical order at bind time) is the
SpMM weight, so one compiled program serves every relation and the layer
just rebinds masks — no relation-specific kernels.
"""

from __future__ import annotations

import numpy as np

from repro.core.executor import TemporalExecutor
from repro.core.module import VertexCentricLayer
from repro.compiler.runtime import GraphContext
from repro.tensor import functional as F
from repro.tensor import init
from repro.tensor.nn import Parameter
from repro.tensor.tensor import Tensor

__all__ = ["RGCNConv"]


def _masked_sum(v):
    return v.agg_sum(lambda nb: nb.h * nb.edge.mask)


class RGCNConv(VertexCentricLayer):
    """Relational GCN: per-relation weights routed by edge masks."""
    def __init__(
        self,
        in_features: int,
        out_features: int,
        num_relations: int,
        bias: bool = True,
    ) -> None:
        if num_relations < 1:
            raise ValueError("num_relations must be >= 1")
        super().__init__(
            _masked_sum,
            feature_widths={"h": "v"},
            grad_features={"h"},
            name="rgcn_masked_sum",
        )
        self.in_features = in_features
        self.out_features = out_features
        self.num_relations = num_relations
        self.weight_self = Parameter(init.glorot_uniform((in_features, out_features)))
        for r in range(num_relations):
            setattr(self, f"weight_rel_{r}", Parameter(init.glorot_uniform((in_features, out_features))))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None
        self._mask_cache: tuple[int, list[np.ndarray], list[np.ndarray]] | None = None

    def _relation_masks(
        self, ctx: GraphContext, edge_relations: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-relation (mask, inverse-count) arrays, cached per context."""
        if self._mask_cache is not None and self._mask_cache[0] == id(ctx):
            return self._mask_cache[1], self._mask_cache[2]
        if len(edge_relations) != ctx.num_edges:
            raise ValueError(
                f"edge_relations has {len(edge_relations)} entries for "
                f"{ctx.num_edges} edges"
            )
        masks, inv_counts = [], []
        for r in range(self.num_relations):
            mask = (edge_relations == r).astype(np.float32)
            masks.append(mask)
            # c_{v,r}: in-edges of v with relation r (clamped for stability)
            counts = np.zeros(ctx.num_nodes, dtype=np.float32)
            np.add.at(counts, ctx.dst_per_edge, mask[ctx.fwd_eids])
            inv_counts.append(1.0 / np.maximum(counts, 1.0))
        self._mask_cache = (id(ctx), masks, inv_counts)
        return masks, inv_counts

    def forward(
        self,
        executor: TemporalExecutor,
        x: Tensor,
        edge_relations: np.ndarray,
    ) -> Tensor:
        """``edge_relations``: int array, relation id per edge *label*."""
        ctx = executor.current_context()
        masks, inv_counts = self._relation_masks(ctx, np.asarray(edge_relations))
        out = F.matmul(x, self.weight_self)
        for r in range(self.num_relations):
            h_r = F.matmul(x, getattr(self, f"weight_rel_{r}"))
            agg = self.aggregate(executor, {"h": h_r}, {"mask": masks[r]})
            agg = F.mul(agg, Tensor(inv_counts[r].reshape(-1, 1)))
            out = F.add(out, agg)
        if self.bias is not None:
            out = F.add(out, self.bias)
        return out
