"""Graph abstraction and storage formats (paper §V-B/C/D, Figure 4).

``STGraphBase`` unifies the three graph kinds the executor can train on:

* :class:`StaticGraph` — static structure, temporal features;
* :class:`NaiveGraph` — DTDG with every snapshot pre-materialized;
* :class:`GPMAGraph` — DTDG as base graph + PMA-backed temporal updates,
  snapshots generated on demand (Algorithms 2 & 3).

The two DTDG kinds (and serving's live view) share :class:`DTDGGraph`: one
logical position and one snapshot build.
"""

from repro.graph.base import DTDGGraph, STGraphBase
from repro.graph.csr import CSR, build_csr, csr_from_edges, edge_density
from repro.graph.dirty import k_hop_neighborhood, touched_vertices
from repro.graph.dtdg import DTDG, EdgeUpdate
from repro.graph.gpma_graph import GPMAGraph
from repro.graph.labels import canonical_edge_labels, decode_edges, encode_edges
from repro.graph.naive import NaiveGraph
from repro.graph.reverse import reverse_gpma_literal, reverse_gpma_vectorized
from repro.graph.sorting import degree_sorted_node_ids
from repro.graph.static import StaticGraph

__all__ = [
    "STGraphBase",
    "DTDGGraph",
    "CSR",
    "build_csr",
    "csr_from_edges",
    "edge_density",
    "DTDG",
    "EdgeUpdate",
    "touched_vertices",
    "k_hop_neighborhood",
    "StaticGraph",
    "NaiveGraph",
    "GPMAGraph",
    "canonical_edge_labels",
    "encode_edges",
    "decode_edges",
    "reverse_gpma_literal",
    "reverse_gpma_vectorized",
    "degree_sorted_node_ids",
]
