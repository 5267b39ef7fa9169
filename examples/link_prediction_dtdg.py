"""DTDG scenario: temporal link prediction on an evolving interaction
network (sx-mathoverflow stand-in), with on-demand snapshots.

Shows the GPMAGraph path end-to-end: the PMA-backed dynamic graph, the
snapshot cache across training sequences, the Graph Stack rewinding
snapshots during backward, and evaluation with ROC-AUC — the paper's DTDG
benchmark task ("Binary Cross Entropy Loss with Logits").

Run:  python examples/link_prediction_dtdg.py
"""

import numpy as np

from repro.dataset import load_sx_mathoverflow
from repro.tensor import Tensor, init, no_grad
from repro.train import (
    STGraphLinkPredictor,
    STGraphTrainer,
    make_link_prediction_samples,
)
from repro.train.metrics import accuracy_from_logits, roc_auc

FEATURES = 16
HIDDEN = 16


def main() -> None:
    dataset = load_sx_mathoverflow(
        scale=0.03, feature_size=FEATURES, percent_change=5.0, max_snapshots=10
    )
    print(f"dataset: {dataset.summary_row()}")
    print(
        "per-snapshot %change:",
        [round(dataset.dtdg.percent_change(t), 2) for t in range(1, dataset.num_timestamps)],
    )

    graph = dataset.build_gpma(enable_cache=True)
    print(f"graph: {graph}  (PMA storage {graph.storage_bytes()/1e3:.0f} KB)")

    samples = make_link_prediction_samples(dataset.dtdg, samples_per_timestamp=256, seed=0)
    init.set_seed(11)
    model = STGraphLinkPredictor(FEATURES, HIDDEN)
    trainer = STGraphTrainer(
        model, graph, lr=5e-3, sequence_length=4,
        task="link_prediction", link_samples=samples,
    )

    for epoch in range(25):
        loss = trainer.train_epoch(dataset.features)
        if epoch % 5 == 0:
            print(f"epoch {epoch:3d}  loss {loss:8.4f}")

    print(
        f"\nGPMA machinery: {graph.update_batches_applied} update batches applied, "
        f"{graph.cache_restores} cache restores"
    )

    # Evaluate AUC per timestamp with the trained embeddings.
    with no_grad():
        aucs, accs = [], []
        state = None
        for t in range(dataset.num_timestamps):
            trainer.executor.begin_inference(t)
            h, state = model.step(trainer.executor, Tensor(dataset.features[t]), state)
            logits = model.score(h, samples[t].pairs).numpy()
            aucs.append(roc_auc(logits, samples[t].labels))
            accs.append(accuracy_from_logits(logits, samples[t].labels))
    print(f"mean ROC-AUC {np.nanmean(aucs):.3f}   mean accuracy {np.mean(accs):.3f}")
    assert np.nanmean(aucs) > 0.6, "trained link predictor should beat chance"


if __name__ == "__main__":
    main()
