"""Quickstart: train a TGCN on a static-temporal dataset with STGraph.

Mirrors the paper's node-regression benchmark setup on the Hungary
Chickenpox stand-in: features are 8 lagged signal values per county, the
target is the next value, MSE loss, Adam, Algorithm-1 training.

Run:  python examples/quickstart.py
"""

from repro.dataset import load_hungary_chickenpox
from repro.train import STGraphNodeRegressor, STGraphTrainer
from repro.train.metrics import rmse
from repro.tensor import Tensor, init, no_grad


def main() -> None:
    # 1. Load the dataset (synthetic stand-in at Table II's exact size).
    dataset = load_hungary_chickenpox(lags=8, num_timestamps=60)
    print(f"dataset: {dataset.summary_row()}")

    # 2. Build the STGraph graph object (pre-processes both CSR
    #    orientations and shared edge labels; pass sort_by_degree=True
    #    for Figure 3's degree-sorted node ids).
    graph = dataset.build_graph()

    # 3. Model: TGCN cell + linear head. The GCN gates inside TGCN are
    #    vertex-centric programs compiled to fused kernels.
    init.set_seed(7)
    model = STGraphNodeRegressor(in_features=8, hidden=16)
    conv = model.cell.conv_z
    print("\ngenerated forward kernel for the GCN gate:")
    print(conv.program.forward_source)

    # 4. Train with Algorithm 1.
    trainer = STGraphTrainer(model, graph, lr=1e-2)
    train_T = 48
    for epoch in range(30):
        loss = trainer.train_epoch(dataset.features[:train_T], dataset.targets[:train_T])
        if epoch % 5 == 0:
            print(f"epoch {epoch:3d}  loss {loss:8.4f}  ({trainer.epoch_times[-1]*1e3:.1f} ms)")

    # 5. Evaluate one-step-ahead predictions on held-out timestamps.
    with no_grad():
        errors = []
        state = None
        for t in range(train_T, dataset.num_timestamps):
            trainer.executor.begin_timestamp(t)
            pred, state = model.step(trainer.executor, Tensor(dataset.features[t]), state)
            errors.append(rmse(pred.numpy(), dataset.targets[t]))
    print(f"\nheld-out RMSE over {len(errors)} steps: {sum(errors)/len(errors):.4f}")
    print(f"executor stats: {trainer.executor.stats()}")


if __name__ == "__main__":
    main()
