"""Dirty-set computation (``repro.graph.dirty``) and live DTDG appends."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import DTDG, EdgeUpdate, build_csr, k_hop_neighborhood, touched_vertices
from repro.graph.labels import encode_edges


def _path_csr(n):
    """Out-edge CSR of the path 0 -> 1 -> ... -> n-1 (rows = src)."""
    row_offset = np.concatenate(
        [np.arange(n, dtype=np.int64), np.array([n - 1], dtype=np.int64)]
    )
    col_indices = np.arange(1, n, dtype=np.int64)
    return row_offset, col_indices


class TestTouchedVertices:
    def test_union_of_all_endpoints(self):
        up = EdgeUpdate(
            np.array([1, 2]), np.array([3, 4]), np.array([5]), np.array([2])
        )
        assert touched_vertices(up).tolist() == [1, 2, 3, 4, 5]

    def test_empty_update(self):
        empty = np.empty(0, dtype=np.int64)
        up = EdgeUpdate(empty, empty, empty, empty)
        assert touched_vertices(up).size == 0


class TestKHopNeighborhood:
    def test_path_graph_expands_one_hop_per_step(self):
        n = 10
        row_offset, col_indices = _path_csr(n)
        for hops in range(4):
            mask = k_hop_neighborhood(row_offset, col_indices, [0], hops, n)
            assert np.flatnonzero(mask).tolist() == list(range(hops + 1))

    def test_hops_zero_is_seeds_only(self):
        n = 6
        row_offset, col_indices = _path_csr(n)
        mask = k_hop_neighborhood(row_offset, col_indices, [2, 4], 0, n)
        assert np.flatnonzero(mask).tolist() == [2, 4]

    def test_no_seeds(self):
        n = 4
        row_offset, col_indices = _path_csr(n)
        mask = k_hop_neighborhood(row_offset, col_indices, [], 2, n)
        assert not mask.any()

    def test_saturates_at_full_reach(self):
        n = 5
        row_offset, col_indices = _path_csr(n)
        mask = k_hop_neighborhood(row_offset, col_indices, [0], 100, n)
        assert mask.all()

    def test_out_of_range_seed_raises(self):
        n = 4
        row_offset, col_indices = _path_csr(n)
        with pytest.raises(ValueError):
            k_hop_neighborhood(row_offset, col_indices, [n], 1, n)
        with pytest.raises(ValueError):
            k_hop_neighborhood(row_offset, col_indices, [-1], 1, n)


@st.composite
def _digraph_and_seeds(draw):
    """A random digraph (duplicate edges and self-loops allowed) and seeds
    that are empty, repeated or random."""
    n = draw(st.integers(1, 24))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    seeds = draw(
        st.one_of(
            st.just([]),
            vertex.map(lambda v: [v] * 3),
            st.lists(vertex, max_size=2 * n),
        )
    )
    return n, edges, seeds


def _bfs_reference(n, edges, seeds, hops):
    """Set-based BFS over out-edges: seeds plus everything within ``hops``."""
    out = {u: set() for u in range(n)}
    for u, v in edges:
        out[u].add(v)
    reached, frontier = set(seeds), set(seeds)
    for _ in range(hops):
        frontier = {v for u in frontier for v in out[u]} - reached
        reached |= frontier
    return reached


@settings(max_examples=200, deadline=None)
@given(case=_digraph_and_seeds(), hops=st.integers(0, 3))
def test_k_hop_matches_set_bfs(case, hops):
    n, edges, seeds = case
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    csr = build_csr(src, dst, np.arange(len(edges)), n)
    mask = k_hop_neighborhood(csr.row_offset, csr.col_indices, np.array(seeds, dtype=np.int64), hops, n)
    assert mask.dtype == bool and mask.shape == (n,)
    assert set(np.flatnonzero(mask).tolist()) == _bfs_reference(n, edges, seeds, hops)


class TestAppendUpdate:
    def _dtdg(self):
        src = np.array([0, 1, 2], dtype=np.int64)
        dst = np.array([1, 2, 3], dtype=np.int64)
        return DTDG([(src, dst)], num_nodes=5)

    def test_append_grows_timestamps_and_applies_edges(self):
        dtdg = self._dtdg()
        t = dtdg.append_update(
            EdgeUpdate(np.array([3]), np.array([4]), np.array([0]), np.array([1]))
        )
        assert t == 1 and dtdg.num_timestamps == 2
        src, dst = dtdg.snapshot_edges(1)
        keys = set(encode_edges(src, dst, 5).tolist())
        assert 3 * 5 + 4 in keys and 0 * 5 + 1 not in keys
        # first snapshot untouched
        src0, dst0 = dtdg.snapshot_edges(0)
        assert 0 * 5 + 1 in set(encode_edges(src0, dst0, 5).tolist())

    def test_normalizes_duplicate_and_existing_adds(self):
        dtdg = self._dtdg()
        # (0,1) already exists; (3,4) listed twice — effective add is one edge
        t = dtdg.append_update(
            EdgeUpdate(
                np.array([0, 3, 3]), np.array([1, 4, 4]),
                np.empty(0, np.int64), np.empty(0, np.int64),
            )
        )
        eff = dtdg.updates[t]
        assert len(eff.add_src) == 1
        assert (int(eff.add_src[0]), int(eff.add_dst[0])) == (3, 4)

    def test_normalizes_missing_deletes(self):
        dtdg = self._dtdg()
        t = dtdg.append_update(
            EdgeUpdate(
                np.empty(0, np.int64), np.empty(0, np.int64),
                np.array([4, 0]), np.array([0, 1]),  # (4,0) does not exist
            )
        )
        eff = dtdg.updates[t]
        assert len(eff.del_src) == 1
        assert (int(eff.del_src[0]), int(eff.del_dst[0])) == (0, 1)

    def test_fully_redundant_batch_is_a_noop_timestamp(self):
        dtdg = self._dtdg()
        t = dtdg.append_update(
            EdgeUpdate(
                np.array([0]), np.array([1]),      # already present
                np.array([4]), np.array([0]),      # not present
            )
        )
        eff = dtdg.updates[t]
        assert len(eff.add_src) == 0 and len(eff.del_src) == 0
        a, b = dtdg.snapshot_edges(0), dtdg.snapshot_edges(t)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_out_of_range_vertex_raises(self):
        dtdg = self._dtdg()
        before = dtdg.num_timestamps
        with pytest.raises(ValueError):
            dtdg.append_update(
                EdgeUpdate(
                    np.array([0]), np.array([5]),
                    np.empty(0, np.int64), np.empty(0, np.int64),
                )
            )
        assert dtdg.num_timestamps == before
