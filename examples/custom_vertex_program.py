"""Writing a custom GNN layer with the vertex-centric programming model.

The paper's core promise: "a deep-learning practitioner can implement the
GNN logic quickly and a learner can ascertain the model's purpose from the
vertex-centric implementation."  This example builds a custom gated
attention layer from scratch, inspects every compilation stage (vertex IR,
tensor IR, generated kernels, State-Stack analysis), and trains it.

Run:  python examples/custom_vertex_program.py
"""

import numpy as np

from repro.compiler import compile_vertex_program
from repro.compiler.symbols import vfn
from repro.core import TemporalExecutor, VertexCentricLayer
from repro.dataset import load_wikimaths
from repro.tensor import Tensor, functional as F, init, optim
from repro.tensor.nn import Parameter


# --- 1. The vertex-centric definition ------------------------------------
def gated_attention(v):
    """Attention over in-neighbors with a tanh score, scaled by the
    destination's degree-normalization — four readable lines."""
    alpha = v.edge_softmax(lambda nb: vfn.tanh(nb.score_l + v.score_r))
    return v.agg_sum(lambda nb: nb.ft * alpha) * v.norm


#: (fn, feature_widths, grad_features, name) tuples `repro lint --examples`
#: compiles and verifies without running main().
LINT_SPECS = [
    (
        gated_attention,
        {"ft": "v", "score_l": "s", "score_r": "s", "norm": "s"},
        {"ft", "score_l", "score_r"},
        "gated_attention",
    ),
]


class GatedAttentionConv(VertexCentricLayer):
    def __init__(self, in_features: int, out_features: int) -> None:
        super().__init__(
            gated_attention,
            feature_widths={"ft": "v", "score_l": "s", "score_r": "s", "norm": "s"},
            grad_features={"ft", "score_l", "score_r"},
            name="gated_attention",
        )
        self.weight = Parameter(init.glorot_uniform((in_features, out_features)))
        self.attn_l = Parameter(init.glorot_uniform((out_features, 1)))
        self.attn_r = Parameter(init.glorot_uniform((out_features, 1)))

    def forward(self, executor, x):
        ctx = executor.current_context()
        norm = (1.0 / np.sqrt(np.maximum(ctx.in_deg, 1))).astype(np.float32)
        ft = F.matmul(x, self.weight)
        sl = F.reshape(F.matmul(ft, self.attn_l), (-1,))
        sr = F.reshape(F.matmul(ft, self.attn_r), (-1,))
        return self.aggregate(executor, {"ft": ft, "score_l": sl, "score_r": sr, "norm": norm})


def main() -> None:
    init.set_seed(0)
    layer = GatedAttentionConv(8, 16)

    # --- 2. Inspect what the compiler produced ----------------------------
    print(layer.program.describe())
    print("\n=== generated forward kernel ===")
    print(layer.program.forward_source)
    print("=== generated backward kernel ===")
    print(layer.program.backward_source)
    print(
        f"State Stack keeps {len(layer.program.saved_spec)} of "
        f"{len(layer.program.analysis.all_forward_buffers)} forward buffers "
        f"per timestamp: {layer.program.saved_spec}"
    )

    # --- 3. Train it ------------------------------------------------------
    dataset = load_wikimaths(lags=8, scale=0.2, num_timestamps=20)
    graph = dataset.build_graph()
    executor = TemporalExecutor(graph)
    head = Parameter(init.glorot_uniform((16, 1)))
    params = list(layer.parameters()) + [head]
    opt = optim.Adam(params, lr=5e-3)

    for epoch in range(15):
        opt.zero_grad()
        total = None
        for t in range(dataset.num_timestamps):
            executor.begin_timestamp(t)
            h = layer(executor, Tensor(dataset.features[t]))
            pred = F.matmul(F.tanh(h), head)
            loss = F.mse_loss(pred, dataset.targets[t])
            total = loss if total is None else F.add(total, loss)
        total.backward()
        executor.check_drained()
        opt.step()
        if epoch % 3 == 0:
            print(f"epoch {epoch:3d}  loss {total.item():8.4f}")


if __name__ == "__main__":
    main()
