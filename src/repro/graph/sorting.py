"""Degree-based vertex ordering (paper Figure 3).

Relabelling vertices to get a degree-sorted CSR would require rearranging
every timestamp's feature matrix, so STGraph instead keeps an auxiliary
``node_ids`` array: vertex ids in descending degree order, defining the
order in which kernels *process* nodes without touching the CSR itself.
On the GPU this lets high-degree vertices start first and overlap with many
low-degree ones.  On the simulated device a row permutation changes neither
a result bit nor a schedule, so the order is opt-in (``sort_by_degree=True``
on a graph) and the default ``node_ids`` is ``None``, the identity: no sort
and no array per build.
"""

from __future__ import annotations

import numpy as np

__all__ = ["degree_sorted_node_ids", "node_ids_for"]


def degree_sorted_node_ids(degrees: np.ndarray) -> np.ndarray:
    """Vertex ids in descending-degree order, stable on id.

    For the Figure 3 example (out-degrees [2, 2, 3, 0]) this yields
    ``[2, 0, 1, 3]``.
    """
    return np.argsort(-np.asarray(degrees, dtype=np.int64), kind="stable").astype(np.int64)


def node_ids_for(degrees: np.ndarray, sort_by_degree: bool) -> np.ndarray | None:
    """A CSR's ``node_ids``: the Figure 3 order at the degrees' width (the
    snapshot's index width) when asked for, else ``None`` for identity."""
    if sort_by_degree:
        return degree_sorted_node_ids(degrees).astype(degrees.dtype, copy=False)
    return None
