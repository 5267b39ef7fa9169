"""K-hop dirty-set computation for incremental serving invalidation.

When an :class:`~repro.graph.dtdg.EdgeUpdate` batch lands on a live graph,
a vertex program's output changes only for vertices whose *k-hop in-coming
neighborhood* changed — everything else is bitwise stable, because each
output row is a deterministic accumulation over an unchanged neighbor list
(same CSR row content, same normalization degrees, same summation order).

The update batch itself names the **touched vertices** — every endpoint of
an added or deleted edge.  A touched vertex ``u`` changes its own row (its
edge set or degree changed) and, because aggregation reads *in*-neighbors,
can change the rows of vertices it points *to*.  Influence therefore
propagates along **out-edges**: one hop per aggregation layer of the model.
Deleted edges need no special casing — both endpoints of a deleted edge are
touched, so the lost dependency is covered by the seed set, and expansion
over the *new* snapshot's out-CSR covers every surviving dependency.

``repro.serve`` keeps one such dirty set per snapshot version and only
recomputes (or refuses to cache-serve) the flagged rows; see
``docs/SERVING.md`` for the end-to-end invalidation rule.
"""

from __future__ import annotations

import numpy as np

__all__ = ["touched_vertices", "k_hop_neighborhood"]


def touched_vertices(update: "object") -> np.ndarray:
    """Unique endpoints named by an update batch (sorted int64 array).

    Accepts any object with ``add_src/add_dst/del_src/del_dst`` arrays
    (:class:`~repro.graph.dtdg.EdgeUpdate`).  Empty batches yield an empty
    array.
    """
    parts = [
        np.asarray(p, dtype=np.int64)
        for p in (
            getattr(update, "add_src"),
            getattr(update, "add_dst"),
            getattr(update, "del_src"),
            getattr(update, "del_dst"),
        )
        if len(p)
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def k_hop_neighborhood(
    row_offset: np.ndarray,
    col_indices: np.ndarray,
    seeds: np.ndarray,
    hops: int,
    num_nodes: int,
) -> np.ndarray:
    """Boolean mask of ``seeds`` plus everything within ``hops`` CSR hops.

    ``(row_offset, col_indices)`` is one CSR orientation; for serving
    invalidation pass the **backward (out-edge) CSR** so the expansion
    follows the direction influence actually flows (``u`` dirty ⇒ every
    ``v`` with an edge ``u→v`` dirty).  ``hops=0`` marks only the seeds.

    Vectorized frontier expansion: per round, all frontier neighbor lists
    are gathered with one ``repeat``/``arange`` slice-concatenation — no
    per-vertex Python loop — and the next frontier is read off a boolean
    scratch mask with ``flatnonzero``, so no round sorts.
    """
    mask = np.zeros(int(num_nodes), dtype=bool)
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size == 0:
        return mask
    if seeds.min() < 0 or seeds.max() >= num_nodes:
        raise ValueError(
            f"seed vertex out of range [0, {num_nodes}): "
            f"[{seeds.min()}, {seeds.max()}]"
        )
    mask[seeds] = True
    frontier = np.flatnonzero(mask)
    fresh_mask = np.zeros_like(mask)
    for _ in range(int(hops)):
        starts = row_offset[frontier]
        counts = row_offset[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Gather col_indices[starts[i] : starts[i]+counts[i]] for all i.
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        gather = np.repeat(starts, counts) + (np.arange(total, dtype=np.int64) - offsets)
        neigh = col_indices[gather]
        fresh_mask[neigh[~mask[neigh]]] = True
        fresh = np.flatnonzero(fresh_mask)
        if fresh.size == 0:
            break
        mask[fresh] = True
        fresh_mask[fresh] = False
        frontier = fresh
    return mask
