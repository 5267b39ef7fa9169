"""CSR construction, edge labelling, degree ordering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    CSR,
    build_csr,
    canonical_edge_labels,
    csr_from_edges,
    decode_edges,
    degree_sorted_node_ids,
    edge_density,
    encode_edges,
)


def test_build_csr_basic():
    # Figure 3's graph: V0->V1, V0->V2, V1->V2, V1->V3, V2->V0, V2->V1, V2->V3
    src = np.array([0, 0, 1, 1, 2, 2, 2])
    dst = np.array([1, 2, 2, 3, 0, 1, 3])
    csr = build_csr(src, dst, np.arange(7), 4)
    csr.validate()
    assert csr.num_nodes == 4 and csr.num_edges == 7
    assert sorted(csr.neighbors(0).tolist()) == [1, 2]
    assert sorted(csr.neighbors(2).tolist()) == [0, 1, 3]
    assert csr.neighbors(3).size == 0
    assert np.array_equal(csr.degrees(), [2, 2, 3, 0])


def test_figure3_node_ids_order():
    """Paper Figure 3: out-degrees [2,2,3,0] → node_ids [V2, V0, V1, V3]."""
    src = np.array([0, 0, 1, 1, 2, 2, 2])
    dst = np.array([1, 2, 2, 3, 0, 1, 3])
    csr = build_csr(src, dst, np.arange(7), 4, sort_by_degree=True)
    assert csr.node_ids.tolist() == [2, 0, 1, 3]


def test_degree_sort_disabled_identity():
    src = np.array([0, 2, 2])
    dst = np.array([1, 0, 1])
    csr = build_csr(src, dst, np.arange(3), 3, sort_by_degree=False)
    assert csr.node_ids is None  # identity order keeps no array


def test_degree_sorted_node_ids_stable_ties():
    assert degree_sorted_node_ids(np.array([2, 2, 3, 0])).tolist() == [2, 0, 1, 3]
    assert degree_sorted_node_ids(np.array([1, 1, 1])).tolist() == [0, 1, 2]


def test_csr_from_edges_label_sharing():
    src = np.array([0, 1, 2, 0])
    dst = np.array([1, 2, 0, 2])
    bwd, fwd = csr_from_edges(src, dst, 3)
    # Same label set in both orientations
    assert sorted(bwd.eids.tolist()) == sorted(fwd.eids.tolist()) == [0, 1, 2, 3]
    # For each label, the edge is identical seen from both sides
    fwd_pairs = {}
    for v in range(3):
        for u, l in zip(fwd.neighbors(v), fwd.edge_ids(v)):
            fwd_pairs[int(l)] = (int(u), int(v))
    for u in range(3):
        for v, l in zip(bwd.neighbors(u), bwd.edge_ids(u)):
            assert fwd_pairs[int(l)] == (u, int(v))


def test_canonical_labels_are_lex_ranks():
    src = np.array([2, 0, 1])
    dst = np.array([0, 1, 2])
    labels = canonical_edge_labels(src, dst, 3)
    # lexicographic order: (0,1) < (1,2) < (2,0)
    assert labels.tolist() == [2, 0, 1]


def test_encode_decode_roundtrip(rng):
    n = 50
    src = rng.integers(0, n, 100)
    dst = rng.integers(0, n, 100)
    keys = encode_edges(src, dst, n)
    s2, d2 = decode_edges(keys, n)
    assert np.array_equal(s2, src) and np.array_equal(d2, dst)


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_edges(np.array([5]), np.array([0]), 5)
    with pytest.raises(ValueError):
        encode_edges(np.array([-1]), np.array([0]), 5)


def test_edge_density():
    assert edge_density(10, 90) == pytest.approx(1.0)
    assert edge_density(10, 9) == pytest.approx(0.1)
    assert edge_density(1, 0) == 0.0


def test_empty_graph_csr():
    csr = build_csr(np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([], dtype=np.int64), 5)
    csr.validate()
    assert csr.num_edges == 0
    assert all(csr.neighbors(v).size == 0 for v in range(5))


def test_csr_nbytes_positive():
    src = np.array([0, 1])
    dst = np.array([1, 0])
    csr = build_csr(src, dst, np.arange(2), 2)
    assert csr.nbytes() > 0


def test_validate_catches_corruption():
    src = np.array([0, 1])
    dst = np.array([1, 0])
    csr = build_csr(src, dst, np.arange(2), 2)
    csr.col_indices[0] = 99
    with pytest.raises(AssertionError):
        csr.validate()
