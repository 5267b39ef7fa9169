"""EvolveGCN-O (Pareja et al.): GCN whose weights evolve over time.

The GCN weight matrix is treated as the hidden state of a GRU and updated
at every timestamp (``W_t = GRU(W_{t-1}, W_{t-1})``), so the spatial layer
itself adapts to the evolving graph — a natural fit for DTDGs and one of
the "new GNN/TGNN layer APIs" the paper's future-work section calls for.

Stateful across a sequence: call :meth:`reset_state` at sequence start.
"""

from __future__ import annotations

import numpy as np

from repro.core.executor import TemporalExecutor
from repro.core.module import graph_aggregate
from repro.compiler.program import compile_vertex_program
from repro.nn.gcn import gcn_norm, _gcn_program_self_loops
from repro.tensor import functional as F
from repro.tensor import init
from repro.tensor.nn import GRUCell, Module, Parameter
from repro.tensor.tensor import Tensor

__all__ = ["EvolveGCNO"]


class EvolveGCNO(Module):
    """GCN whose weight matrix evolves through a GRU each timestamp."""
    def __init__(
        self,
        in_features: int,
        out_features: int,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.initial_weight = Parameter(init.glorot_uniform((in_features, out_features)))
        self.evolve = GRUCell(out_features, out_features)
        self.program = compile_vertex_program(
            _gcn_program_self_loops,
            feature_widths={"h": "v", "norm": "s"},
            grad_features={"h"},
            name="gcn_self_loops",
        )
        self._weight: Tensor | None = None

    def reset_state(self) -> None:
        """Restart weight evolution from the trainable initial weight."""
        self._weight = None

    def forward(self, executor: TemporalExecutor, x: Tensor) -> Tensor:
        """Evolve the weight, then run the GCN aggregation with it."""
        w_prev = self.initial_weight if self._weight is None else self._weight
        # Treat each input-dimension row of W as a batch element of the GRU.
        w_next = self.evolve(w_prev, w_prev)
        self._weight = w_next
        ctx = executor.current_context()
        norm = gcn_norm(ctx, add_self_loops=True)
        h = F.matmul(x, w_next)
        return graph_aggregate(self.program, executor, {"h": h, "norm": norm})
