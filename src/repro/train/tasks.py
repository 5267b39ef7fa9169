"""Benchmark tasks (paper §VII "Tasks").

* Node regression on static-temporal datasets ("node classification task
  with MSE as the loss criterion" — the signals are continuous, so the
  PyG-T convention is next-value regression).
* Link prediction on DTDGs ("Binary Cross Entropy Loss with Logits"):
  positives sampled from each snapshot's edges, negatives from random
  non-edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.dtdg import DTDG
from repro.graph.labels import encode_edges, positions_in

__all__ = ["LinkSamples", "make_link_prediction_samples"]


@dataclass
class LinkSamples:
    """Candidate pairs + labels for one timestamp."""

    pairs: np.ndarray  # (2, K) int64
    labels: np.ndarray  # (K,) float32 in {0, 1}


def make_link_prediction_samples(
    dtdg: DTDG,
    samples_per_timestamp: int = 256,
    seed: int = 0,
    horizon: int = 0,
) -> list[LinkSamples]:
    """Balanced positive/negative edge samples for every timestamp.

    ``horizon=h`` samples each timestamp's candidates from snapshot
    ``t + h`` (clamped to the last snapshot): the standard *future* link
    prediction setup where embeddings at ``t`` must predict edges at
    ``t + h``; ``horizon=0`` reproduces the paper's presence-at-``t`` task.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    rng = np.random.default_rng(seed)
    n = dtdg.num_nodes
    out: list[LinkSamples] = []
    for t in range(dtdg.num_timestamps):
        target_t = min(t + horizon, dtdg.num_timestamps - 1)
        src, dst = dtdg.snapshot_edges(target_t)
        num_pos = min(samples_per_timestamp // 2, len(src))
        pos_idx = rng.choice(len(src), size=num_pos, replace=False)
        pos = np.stack([src[pos_idx], dst[pos_idx]])

        edge_keys = encode_edges(src, dst, n)  # sorted and unique: snapshot order
        negs: list[np.ndarray] = []
        need = num_pos
        if need and np.count_nonzero(src != dst) == n * (n - 1):
            # No negative exists, so the loop below would never end.  The
            # check draws nothing from rng: every other sample stays the same.
            raise ValueError(
                f"timestamp {t}: snapshot {target_t} has no non-edge between distinct vertices to sample"
            )
        while need > 0:
            cand_s = rng.integers(0, n, size=need * 2)
            cand_d = rng.integers(0, n, size=need * 2)
            ok = cand_s != cand_d
            cand_s, cand_d = cand_s[ok], cand_d[ok]
            keys = encode_edges(cand_s, cand_d, n)
            fresh = ~positions_in(edge_keys, keys)[1]
            take = min(need, int(fresh.sum()))
            negs.append(np.stack([cand_s[fresh][:take], cand_d[fresh][:take]]))
            need -= take
        neg = np.concatenate(negs, axis=1) if negs else np.empty((2, 0), dtype=np.int64)

        pairs = np.concatenate([pos, neg], axis=1).astype(np.int64)
        labels = np.concatenate(
            [np.ones(pos.shape[1], dtype=np.float32), np.zeros(neg.shape[1], dtype=np.float32)]
        )
        out.append(LinkSamples(pairs, labels))
    return out
