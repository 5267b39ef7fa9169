"""Packed Memory Array — the GPMA storage substrate.

The paper stores DTDGs in a GPMA [Sha et al., VLDB'17]: a GPU Packed Memory
Array whose ``col_indices``/``eids`` arrays "contain empty spaces between
elements", making batched edge insertions/deletions cheap and letting
snapshots be generated on demand (Algorithm 2).

This package is a faithful CPU PMA with the same semantics:

* gapped, globally sorted storage with ``SPACE`` sentinels;
* segments with level-dependent density bounds;
* **batched** insert/delete as one segmented pass per batch — route the
  sorted batch, gather the touched segments as a block, locate every key
  with one ``searchsorted``, compact or merge all rows at once, write the
  block back — at ``O(touched * seg_size)`` per batch with no
  ``O(capacity)`` term (GPMA's one-thread-group-per-segment update);
* window rebalancing only for the segments that violate a density bound
  (the GPMA's levelwise parallel rebalance becomes a vectorized NumPy
  redistribution over the same windows);
* adaptive capacity growth/shrink when the root density bound is violated.

Edges are stored as ``src * n_dst + dst`` encoded keys with the edge id as
the payload, so one PMA instance holds one evolving adjacency structure.
"""

from repro.pma.pma import SPACE_KEY, PackedMemoryArray
from repro.pma.segment import DensityBounds, window_bounds

__all__ = ["PackedMemoryArray", "SPACE_KEY", "DensityBounds", "window_bounds"]
