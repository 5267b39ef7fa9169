"""PyG-style GCN convolution over COO edge_index (edge-parallel).

Mathematically identical to :class:`repro.nn.GCNConv` (symmetric
normalization with self-loops), but executed the PyG way: self-loop edges
appended to the edge list, per-edge norms materialized, and propagation via
gather/scatter.  The ``(edge_index, norm)`` preparation runs on every
call, as PyG's default ``cached=False`` does, so a static graph pays it per
step just as a changing one does.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.pygt.message_passing import MessagePassing
from repro.device import current_device
from repro.tensor import functional as F
from repro.tensor import init
from repro.tensor.nn import Parameter
from repro.tensor.tensor import Tensor

__all__ = ["PyGGCNConv", "gcn_norm_coo"]


def gcn_norm_coo(
    edge_index: np.ndarray, num_nodes: int, add_self_loops: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """PyG's ``gcn_norm``: append self-loops, return per-edge norm weights."""
    alloc = current_device().alloc
    if add_self_loops:
        loops = np.arange(num_nodes, dtype=np.int64)
        edge_index = np.concatenate(
            [edge_index, np.stack([loops, loops])], axis=1
        )
    edge_index = alloc.adopt(np.ascontiguousarray(edge_index), tag="pyg.edge_index")
    src, dst = edge_index[0], edge_index[1]
    deg = np.bincount(dst, minlength=num_nodes).astype(np.float32)
    deg_inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1.0))
    norm = alloc.adopt(
        (deg_inv_sqrt[src] * deg_inv_sqrt[dst]).astype(np.float32), tag="pyg.norm"
    )
    return edge_index, norm


class PyGGCNConv(MessagePassing):
    """PyG-style GCN over COO edge_index (edge-parallel execution)."""
    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        add_self_loops: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.add_self_loops = add_self_loops
        self.weight = Parameter(init.glorot_uniform((in_features, out_features)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor, edge_index: np.ndarray) -> Tensor:
        """Normalize, project, and propagate edge-parallel."""
        num_nodes = x.shape[0]
        ei, norm = gcn_norm_coo(edge_index, num_nodes, self.add_self_loops)
        h = F.matmul(x, self.weight)
        out = self.propagate(ei, h, edge_weight=norm, num_nodes=num_nodes)
        if self.bias is not None:
            out = F.add(out, self.bias)
        return out
