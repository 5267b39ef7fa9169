"""StaticGraph / NaiveGraph / GPMAGraph behaviour and equivalence."""

from __future__ import annotations

from dataclasses import replace

import networkx as nx
import numpy as np
import pytest

from repro.core.executor import TemporalExecutor
from repro.graph import DTDG, GPMAGraph, NaiveGraph, StaticGraph
from repro.graph.dtdg import EdgeUpdate
from repro.graph.labels import decode_edges
from repro.graph.snapshot_builder import UpdateCursor
from repro.pma.pma import SPACE_KEY
from tests._snapshot_reference import reference_gapped_csr_arrays


@pytest.fixture
def random_dtdg(rng):
    n = 30
    keys = set()
    while len(keys) < 90:
        s, d = rng.integers(0, n, 2)
        if s != d:
            keys.add((int(s), int(d)))
    snaps = []
    for t in range(6):
        if t:
            for k in sorted(keys)[:5]:
                keys.discard(k)
            while len(keys) < 90:
                s, d = rng.integers(0, n, 2)
                if s != d:
                    keys.add((int(s), int(d)))
        arr = np.array(sorted(keys), dtype=np.int64)
        snaps.append((arr[:, 0].copy(), arr[:, 1].copy()))
    return DTDG(snaps, n)


def _edge_set(graph):
    bwd = graph.backward_csr()
    out = set()
    for u in range(graph.num_nodes):
        for v in bwd.neighbors(u):
            out.add((int(u), int(v)))
    return out


# ---------------------------------------------------------------------------
# StaticGraph
# ---------------------------------------------------------------------------
def test_static_graph_matches_networkx():
    g = nx.gnp_random_graph(25, 0.2, seed=4, directed=True)
    sg = StaticGraph.from_networkx(g)
    assert sg.num_nodes == 25
    assert sg.num_edges == g.number_of_edges()
    assert _edge_set(sg) == set(g.edges())
    for v in range(25):
        assert sg.in_degrees()[v] == g.in_degree(v)
        assert sg.out_degrees()[v] == g.out_degree(v)


def test_static_graph_temporal_identity():
    sg = StaticGraph(np.array([0]), np.array([1]), 2)
    assert sg.get_graph(5) is sg
    assert sg.get_backward_graph(3) is sg
    assert not sg.is_dynamic


def test_static_graph_label_consistency():
    g = nx.gnp_random_graph(15, 0.3, seed=9, directed=True)
    sg = StaticGraph.from_networkx(g)
    sg.validate_label_consistency()


def test_static_graph_length_mismatch():
    with pytest.raises(ValueError):
        StaticGraph(np.array([0, 1]), np.array([1]), 3)


# ---------------------------------------------------------------------------
# NaiveGraph
# ---------------------------------------------------------------------------
def test_naive_graph_snapshots(random_dtdg):
    ng = NaiveGraph(random_dtdg)
    assert ng.is_dynamic
    assert ng.num_timestamps == random_dtdg.num_timestamps
    for t in range(random_dtdg.num_timestamps):
        ng.get_graph(t)
        s, d = random_dtdg.snapshot_edges(t)
        assert _edge_set(ng) == set(zip(s.tolist(), d.tolist()))
        ng.validate_label_consistency()


def test_naive_graph_stores_two_csr_copies(random_dtdg, fresh_device):
    ng = NaiveGraph(random_dtdg)
    # the paper's memory critique: both orientations per snapshot resident
    assert ng.storage_bytes() > 0
    tags = fresh_device.tracker.live_by_tag()
    assert any(t.startswith("naive.fwd.") for t in tags)
    assert any(t.startswith("naive.bwd.") for t in tags)


def test_naive_graph_backward_positioning(random_dtdg):
    ng = NaiveGraph(random_dtdg)
    ng.get_graph(3)
    e3 = _edge_set(ng)
    ng.get_backward_graph(1)
    s, d = random_dtdg.snapshot_edges(1)
    assert _edge_set(ng) == set(zip(s.tolist(), d.tolist()))
    ng.get_graph(3)
    assert _edge_set(ng) == e3


def test_naive_graph_refuses_a_timestamp_appended_after_construction():
    """``append_update`` lengthens the DTDG, not the pre-built list: moving to
    the new timestamp (forward or backward) raises an ``IndexError`` naming
    it and the built range, and the graph stays where it was."""
    dtdg = DTDG([(np.array([0, 1]), np.array([1, 2])), (np.array([0]), np.array([2]))], 3)
    ng = NaiveGraph(dtdg)
    ng.get_graph(1)
    before = _edge_set(ng)
    t_new = dtdg.append_update(EdgeUpdate(np.array([2]), np.array([0]), np.array([], int), np.array([], int)))
    assert t_new == 2 and dtdg.num_timestamps == 3
    for move in (ng.get_graph, ng.get_backward_graph):
        with pytest.raises(IndexError, match=r"timestamp 2 .*\[0, 2\)"):
            move(t_new)
        assert ng.curr_time == 1 and _edge_set(ng) == before
    with pytest.raises(IndexError, match="timestamp -1 "):
        ng.get_graph(-1)


# ---------------------------------------------------------------------------
# GPMAGraph
# ---------------------------------------------------------------------------
def _snapshot_arrays(snap):
    """The ten arrays of a built snapshot (``None`` for identity order)."""
    return [
        a
        for csr in (snap.fwd, snap.bwd)
        for a in (csr.row_offset, csr.col_indices, csr.eids, csr.node_ids)
    ] + [snap.in_deg, snap.out_deg]


def _assert_same_snapshot(got, want, where):
    for a, b in zip(_snapshot_arrays(got), _snapshot_arrays(want), strict=True):
        if b is None:
            assert a is None, where
            continue
        assert a.dtype == b.dtype and np.array_equal(a, b), where


def test_gpma_equals_naive_on_walks(random_dtdg):
    """Naive pre-builds with the same builder the GPMA graph runs on demand,
    so the two expose the same arrays, dtypes included, at every position
    and in both vertex orders; on the DTDG's key-sorted edges that build is
    also bit-equal to the ``csr_from_edges`` build a ``StaticGraph`` runs."""
    walk = [0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0, 3, 5, 0, 2]
    for sort_by_degree in (False, True):
        ng = NaiveGraph(random_dtdg, sort_by_degree=sort_by_degree)
        gg = GPMAGraph(random_dtdg, sort_by_degree=sort_by_degree)
        for t in walk:
            ng.get_graph(t)
            gg.get_graph(t)
            gg.pma.check_invariants()
            where = (sort_by_degree, t)
            _assert_same_snapshot(gg.snapshot(), ng.snapshot(), where)
            # StaticGraph stores its labels; on key-sorted edges they are the
            # positions a DTDG build leaves implicit (``bwd.eids is None``).
            static = StaticGraph(*random_dtdg.snapshot_edges(t), random_dtdg.num_nodes, sort_by_degree).snapshot()
            assert np.array_equal(static.bwd.eids, np.arange(static.bwd.num_edges))
            _assert_same_snapshot(replace(static, bwd=replace(static.bwd, eids=None)), ng.snapshot(), where)
            assert (gg.snapshot_version, gg.num_edges) == (ng.snapshot_version, ng.num_edges)
            gg.validate_label_consistency()


def test_gpma_out_of_range_timestamp(random_dtdg):
    gg = GPMAGraph(random_dtdg)
    with pytest.raises(IndexError):
        gg.get_graph(99)
    with pytest.raises(IndexError):
        gg.get_graph(-1)


def _snapshot_edges(dtdg, t):
    s, d = dtdg.snapshot_edges(t)
    return set(zip(s.tolist(), d.tolist()))


def _cursor_edge_set(cursor):
    keys = cursor.pma.export_items()
    return set(zip(*(a.tolist() for a in decode_edges(keys, cursor.num_nodes))))


def test_gpma_cache_restores_state(random_dtdg):
    """Algorithm 2 lines 1-5 at the layer that owns them: a cursor rewound to
    the sequence start jumps back onto its saved state with zero batches."""
    cur = UpdateCursor(random_dtdg)
    cur.advance(5)
    cur.cache_state()
    for t in range(5, -1, -1):
        cur.advance(t)
    restores, batches = cur.cache_restores, cur.update_batches_applied
    cur.advance(5)  # should restore the cache, zero update batches
    assert cur.cache_restores == restores + 1
    assert cur.update_batches_applied == batches
    assert _cursor_edge_set(cur) == _snapshot_edges(random_dtdg, 5)

    # An executor serves the rewind from its context store, so the same walk
    # does not move the graph's PMA at all: forward batches once, nothing after.
    gg = GPMAGraph(random_dtdg)
    ex = TemporalExecutor(gg, ctx_cache_size=6)
    for t in range(6):
        ex.begin_timestamp(t)
    ex.end_sequence_forward()
    for t in [5, 4, 3, 2, 1, 0]:
        ctx = ex.backward_context(t)
        src = np.repeat(np.arange(ctx.num_nodes), np.diff(ctx.bwd_row))
        assert set(zip(src.tolist(), ctx.bwd_col.tolist())) == _snapshot_edges(random_dtdg, t)
    ex.begin_inference(5)
    assert ex.ctx_cache_hits == 7
    assert gg.update_batches_applied == 5
    assert gg.cache_restores == 0


def test_gpma_cache_disabled(random_dtdg):
    """``enable_cache=False`` means no restore points, the base graph included."""
    cur = UpdateCursor(random_dtdg, enable_cache=False)
    cur.advance(5)
    cur.cache_state()  # no-op
    for t in range(5, -1, -1):
        cur.advance(t)
    before = cur.update_batches_applied
    cur.advance(5)
    assert cur.cache_restores == 0
    assert cur.update_batches_applied == before + 5  # replayed all updates

    gg = GPMAGraph(random_dtdg, enable_cache=False)
    for t in [0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0, 5]:
        gg.get_graph(t)
        assert _edge_set(gg) == _snapshot_edges(random_dtdg, t)
    gg.cache_snapshot()  # no-op
    assert gg.cache_restores == 0
    assert gg.update_batches_applied == 5 + 5 + 5  # every build replays its way there


def test_gpma_gapped_csr_structure(random_dtdg):
    gg = GPMAGraph(random_dtdg)
    gg.get_graph(2)
    row, col, eid = reference_gapped_csr_arrays(gg.pma, gg.num_nodes)
    assert len(row) == gg.num_nodes + 1
    valid = col != SPACE_KEY
    assert int(valid.sum()) == gg.num_edges
    # labels are exactly 0..E-1 (Algorithm 2 relabelling)
    assert sorted(eid[valid].tolist()) == list(range(gg.num_edges))
    # every valid slot lies inside its source's window
    keys = gg.pma.gapped_arrays()
    for i in range(gg.num_nodes):
        window = keys[row[i] : row[i + 1]]
        w_valid = window != SPACE_KEY
        if w_valid.any():
            srcs = window[w_valid] // gg.num_nodes
            assert (srcs == i).all()


def test_gpma_storage_constant_in_timestamps(random_dtdg):
    """GPMA's persistent storage doesn't scale with snapshot count."""
    gg = GPMAGraph(random_dtdg)
    first = gg.storage_bytes()
    for t in range(6):
        gg.get_graph(t)
    assert gg.storage_bytes() <= first * 2  # may grow with capacity, not with T


def test_gpma_num_edges_tracks_snapshot(random_dtdg):
    gg = GPMAGraph(random_dtdg)
    for t in range(random_dtdg.num_timestamps):
        gg.get_graph(t)
        assert gg.num_edges == random_dtdg.snapshot_edge_count(t)
