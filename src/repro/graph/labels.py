"""Edge labelling.

Paper §V-B requirement 3: "The CSRs used during forward and backward
propagation need to share the same edge labels.  This ensures that the same
edge property is accessed during both passes for a given edge."

The canonical label of an edge is its rank in the lexicographic order of
``(src, dst)`` pairs — equivalently the rank of the encoded key
``src * N + dst``.  Both CSR orientations are built from the same labelled
edge list, and GPMAGraph relabels after every structural update
(Algorithm 2, line 8) because insertions/deletions shift ranks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["canonical_edge_labels", "encode_edges", "decode_edges", "positions_in"]


def encode_edges(src: np.ndarray, dst: np.ndarray, num_nodes: int) -> np.ndarray:
    """Encode ``(src, dst)`` pairs as sortable int64 keys.

    ``src`` and ``dst`` must be 1-D and of equal length: one key per pair,
    never a broadcast.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.ndim != 1 or src.shape != dst.shape:
        raise ValueError(f"src and dst must be 1-D and of equal length, got shapes {src.shape} and {dst.shape}")
    if len(src) and (src.max(initial=0) >= num_nodes or dst.max(initial=0) >= num_nodes):
        raise ValueError("vertex id out of range")
    if len(src) and (src.min(initial=0) < 0 or dst.min(initial=0) < 0):
        raise ValueError("negative vertex id")
    return src * np.int64(num_nodes) + dst


def decode_edges(keys: np.ndarray, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_edges`."""
    keys = np.asarray(keys, dtype=np.int64)
    return keys // num_nodes, keys % num_nodes


def positions_in(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower-bound position of each key in ``sorted_keys`` and whether it is
    there: a binary search per key, so ``sorted_keys`` is never re-sorted."""
    at = np.searchsorted(sorted_keys, keys)
    known = at < len(sorted_keys)
    known[known] = sorted_keys[at[known]] == keys[known]
    return at, known


def canonical_edge_labels(src: np.ndarray, dst: np.ndarray, num_nodes: int) -> np.ndarray:
    """Label each edge with its rank in (src, dst) lexicographic order."""
    keys = encode_edges(src, dst, num_nodes)
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[np.argsort(keys, kind="stable")] = np.arange(len(keys), dtype=np.int64)
    return ranks

