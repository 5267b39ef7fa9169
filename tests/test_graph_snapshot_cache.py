"""Snapshot versioning and the one store of built snapshots: the executor's
``snapshot_key() -> GraphContext`` LRU (a graph keeps only the build it exposes)."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core.executor import TemporalExecutor
from repro.graph import DTDG, GPMAGraph, NaiveGraph
from repro.graph.labels import decode_edges
from repro.graph.snapshot_builder import UpdateCursor


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


@pytest.fixture
def noop_dtdg():
    """Four snapshots where t1 repeats t0 and t3 repeats t2 (no-op batches)."""
    n = 6
    base = [(0, 1), (1, 2), (2, 3), (3, 0)]
    bigger = base + [(4, 5), (5, 0)]
    snaps = []
    for edges in (base, base, bigger, bigger):
        arr = np.array(sorted(edges), dtype=np.int64)
        snaps.append((arr[:, 0].copy(), arr[:, 1].copy()))
    return DTDG(snaps, n)


def _edge_set(graph):
    bwd = graph.backward_csr()
    out = set()
    for u in range(graph.num_nodes):
        for v in bwd.neighbors(u):
            out.add((int(u), int(v)))
    return out


def _ctx_edge_set(ctx):
    """Edges of a served context, from its out-CSR arrays."""
    src = np.repeat(np.arange(ctx.num_nodes), np.diff(ctx.bwd_row))
    return set(zip(src.tolist(), ctx.bwd_col.tolist()))


def _snapshot_edge_set(dtdg, t):
    s, d = dtdg.snapshot_edges(t)
    return set(zip(s.tolist(), d.tolist()))


def _cursor_edge_set(cursor):
    keys, _ = cursor.pma.export_items()
    return set(zip(*(a.tolist() for a in decode_edges(keys, cursor.num_nodes))))


# ---------------------------------------------------------------------------
# Tentpole acceptance: the backward walk rebuilds nothing
# ---------------------------------------------------------------------------
def test_backward_walk_serves_all_csrs_from_cache(random_dtdg):
    T = random_dtdg.num_timestamps
    gg = GPMAGraph(random_dtdg)
    ex = TemporalExecutor(gg, ctx_cache_size=T)
    for t in range(T):
        ex.begin_timestamp(t)
    assert gg.csr_cache_misses == T  # every snapshot built exactly once
    assert gg.csr_cache_hits == 0
    assert (ex.ctx_cache_hits, ex.ctx_cache_misses) == (0, T)
    ex.end_sequence_forward()
    for t in range(T - 1, -1, -1):
        ctx = ex.backward_context(t)
        assert _ctx_edge_set(ctx) == _snapshot_edge_set(random_dtdg, t)
    # Zero CSR rebuilds on the backward walk: one store hit per timestamp.
    assert ex.ctx_cache_hits == T
    assert gg.csr_cache_misses == T


def test_cached_csrs_match_fresh_builds(random_dtdg):
    """Store-served contexts hold the same structure a cold build produces."""
    T = random_dtdg.num_timestamps
    gg = GPMAGraph(random_dtdg)
    ex = TemporalExecutor(gg, ctx_cache_size=T)
    ng = NaiveGraph(random_dtdg)
    for t in range(T):
        ex.begin_timestamp(t)
    for t in range(T - 1, -1, -1):
        ctx = ex.backward_context(t)
        ng.get_backward_graph(t)
        assert _ctx_edge_set(ctx) == _edge_set(ng)
        assert np.array_equal(ctx.in_deg, ng.in_degrees())
        assert np.array_equal(ctx.out_deg, ng.out_degrees())
        # both orientations agree edge by edge: label l is the same (u, v)
        fwd_dst = np.repeat(np.arange(ctx.num_nodes), np.diff(ctx.fwd_row))
        bwd_src = np.repeat(np.arange(ctx.num_nodes), np.diff(ctx.bwd_row))
        by_label = np.empty((ctx.num_edges, 2), dtype=np.int64)
        by_label[ctx.bwd_eids] = np.stack([bwd_src, ctx.bwd_col], axis=1)
        assert np.array_equal(by_label[ctx.fwd_eids], np.stack([ctx.fwd_col, fwd_dst], axis=1))
    assert ex.ctx_cache_hits == T


def test_lru_stays_bounded(random_dtdg):
    ex = TemporalExecutor(GPMAGraph(random_dtdg), ctx_cache_size=2)
    for t in list(range(6)) + [4, 3, 2, 1, 0]:
        ex.begin_inference(t)
        assert len(ex._ctx_cache) <= 2


# ---------------------------------------------------------------------------
# Snapshot versioning
# ---------------------------------------------------------------------------
def test_version_bumps_only_on_structural_change(noop_dtdg):
    gg = GPMAGraph(noop_dtdg)
    gg.get_graph(0)
    fwd0 = gg.forward_csr()
    assert gg.snapshot_version == 0

    gg.get_graph(1)  # no-op batch: same content as t0
    assert gg.snapshot_version == 0
    assert gg.noop_updates_skipped == 1
    assert gg.forward_csr() is fwd0  # not even re-derived, let alone rebuilt
    assert gg.csr_cache_misses == 1  # only the t0 build

    gg.get_graph(2)  # real batch
    assert gg.snapshot_version == 1
    gg.forward_csr()
    assert gg.csr_cache_misses == 2

    gg.get_graph(3)  # no-op again
    assert gg.snapshot_version == 1
    assert gg.noop_updates_skipped == 2


def test_versions_stable_across_revisits(noop_dtdg):
    """A revisited timestamp restores its recorded version, so earlier
    cache entries stay addressable (never a stale alias)."""
    gg = GPMAGraph(noop_dtdg)
    for t in range(4):
        gg.get_graph(t)
        gg.forward_csr()
    assert {t: noop_dtdg.version_of(t) for t in range(4)} == {0: 0, 1: 0, 2: 1, 3: 1}
    gg.get_graph(1)
    assert gg.snapshot_version == 0
    assert _edge_set(gg) == _snapshot_edge_set(noop_dtdg, 1)
    gg.get_graph(3)
    assert gg.snapshot_version == 1
    assert _edge_set(gg) == _snapshot_edge_set(noop_dtdg, 3)


def test_snapshot_key_is_content_identity(noop_dtdg):
    gg = GPMAGraph(noop_dtdg)
    gg.get_graph(0)
    key0 = gg.snapshot_key()
    gg.get_graph(1)
    assert gg.snapshot_key() == key0  # no-op chain: identical content
    gg.get_graph(2)
    assert gg.snapshot_key() != key0


def test_naive_and_gpma_share_one_identity_rule(noop_dtdg):
    """One ``snapshot_key`` definition: the DTDG's content version on both
    graph kinds, so a no-op boundary reuses the context on both."""
    for graph in (GPMAGraph(noop_dtdg), NaiveGraph(noop_dtdg)):
        ex = TemporalExecutor(graph)
        ctxs = [ex.begin_inference(t) for t in range(4)]
        assert [c.snapshot_key for c in ctxs] == [noop_dtdg.version_of(t) for t in range(4)] == [0, 0, 1, 1]
        assert ctxs[1] is ctxs[0] and ctxs[3] is ctxs[2] and ctxs[2] is not ctxs[0]
        assert (ex.ctx_cache_hits, ex.ctx_cache_misses) == (2, 2)
        with pytest.raises(AttributeError):
            graph.snapshot_version = 7  # read-only: identity comes from the data


def test_dropped_graph_frees_its_arrays_without_the_collector(random_dtdg, fresh_device):
    """A graph and its cursor form no reference cycle: with the cyclic
    collector off, ``del graph`` alone returns every tracked byte."""
    gc.collect()
    gc.disable()
    try:
        before = fresh_device.tracker.current_bytes
        gg = GPMAGraph(random_dtdg)
        gg.get_graph(1).forward_csr()
        assert fresh_device.tracker.current_bytes > before
        del gg
        assert fresh_device.tracker.current_bytes == before
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The store switched off
# ---------------------------------------------------------------------------
def test_graph_alone_rebuilds_every_repositioned_snapshot(random_dtdg):
    """Without an executor's store the graph keeps one build: every move to
    another version rebuilds, and only the unmoved revisit is a hit."""
    gg = GPMAGraph(random_dtdg)
    for t in range(6):
        gg.get_graph(t)
        gg.forward_csr()
    gg.cache_snapshot()
    for t in range(5, -1, -1):
        gg.get_backward_graph(t)
        gg.forward_csr()
        assert _edge_set(gg) == _snapshot_edge_set(random_dtdg, t)
    assert gg.csr_cache_hits == 1  # t=5, revisited without moving
    assert gg.csr_cache_misses == 11  # 6 forward + 5 backward


@pytest.mark.parametrize("capacity", [0], ids=["capacity-0"])
def test_ctx_cache_size_zero_disables(random_dtdg, capacity):
    """The store has one switch, its capacity: at 0 every positioning builds
    its context (and its snapshot) afresh."""
    gg = GPMAGraph(random_dtdg)
    ex = TemporalExecutor(gg, ctx_cache_size=capacity)
    for t in (0, 1, 2):
        ex.begin_timestamp(t)
    for t in (2, 1, 0):
        assert _ctx_edge_set(ex.backward_context(t)) == _snapshot_edge_set(random_dtdg, t)
    assert len(ex._ctx_cache) == 0
    assert (ex.ctx_cache_hits, ex.ctx_cache_misses) == (0, 0)
    assert gg.csr_cache_misses == 5  # 3 forward + 2 backward (t=2 unmoved)


# ---------------------------------------------------------------------------
# Satellite 1: cache restore is purely distance-based
# ---------------------------------------------------------------------------
def test_rewind_past_cache_restores_on_distance(random_dtdg):
    """Jumping to t=4 from t=0 with the cache at t=5 must restore the cache
    and apply ONE reverse batch — not replay four forward batches.  The rule
    is ``UpdateCursor.advance``'s; a graph only reaches it when it builds."""
    cur = UpdateCursor(random_dtdg)
    cur.advance(5)
    cur.cache_state()  # cache holds t=5
    for t in range(5, -1, -1):
        cur.advance(t)  # rewind to t=0
    restores, before = cur.cache_restores, cur.update_batches_applied
    cur.advance(4)
    assert cur.cache_restores == restores + 1
    assert cur.update_batches_applied == before + 1
    assert _cursor_edge_set(cur) == _snapshot_edge_set(random_dtdg, 4)

    gg = GPMAGraph(random_dtdg)
    for t in [0, 1, 2, 3, 4, 5]:
        gg.get_graph(t)
    gg.cache_snapshot()
    for t in [5, 4, 3, 2, 1, 0, 4]:
        gg.get_backward_graph(t)
        assert _edge_set(gg) == _snapshot_edge_set(random_dtdg, t)
        assert gg.snapshot_version == random_dtdg.version_of(t)


# ---------------------------------------------------------------------------
# Satellite 4: sequence-boundary caching (Algorithm 2 lines 1-5 / 10)
# ---------------------------------------------------------------------------
def test_sequence_boundary_cache_flow(random_dtdg):
    """Forward a sequence, cache, rewind, then start the next sequence from
    the cached snapshot with a single update batch."""
    cur = UpdateCursor(random_dtdg)
    cur.advance(2)
    cur.cache_state()  # end of sequence [0..2]
    for t in range(2, -1, -1):
        cur.advance(t)
    restores, before = cur.cache_restores, cur.update_batches_applied
    cur.advance(3)  # next sequence: restore t=2, one forward batch
    assert cur.cache_restores == restores + 1
    assert cur.update_batches_applied == before + 1
    assert _cursor_edge_set(cur) == _snapshot_edge_set(random_dtdg, 3)
    cur.pma.check_invariants()

    # An executor that served the LIFO walk from its store never rewound the
    # graph: the next sequence is the same single batch, nothing to restore.
    gg = GPMAGraph(random_dtdg)
    ex = TemporalExecutor(gg)
    for t in range(3):
        ex.begin_timestamp(t)
    ex.end_sequence_forward()
    for t in range(2, -1, -1):
        assert _ctx_edge_set(ex.backward_context(t)) == _snapshot_edge_set(random_dtdg, t)
    before = gg.update_batches_applied
    assert _ctx_edge_set(ex.begin_timestamp(3)) == _snapshot_edge_set(random_dtdg, 3)
    assert gg.update_batches_applied == before + 1
    assert gg.cache_restores == 0
    gg.pma.check_invariants()


def test_restore_cache_after_capacity_change():
    """Restoring a cache taken at a smaller PMA capacity reallocates the
    geometry (the _alloc_arrays path) and still yields the exact snapshot."""
    n = 32
    t0 = [(0, 1), (1, 2), (2, 3), (3, 4)]
    rng = np.random.default_rng(7)
    extra = set()
    while len(extra) < 200:
        s, d = rng.integers(0, n, 2)
        if s != d:
            extra.add((int(s), int(d)))
    t1 = sorted(set(t0) | extra)
    snaps = []
    for edges in (sorted(t0), t1):
        arr = np.array(edges, dtype=np.int64)
        snaps.append((arr[:, 0].copy(), arr[:, 1].copy()))
    dtdg = DTDG(snaps, n)

    cur = UpdateCursor(dtdg)
    cap_before = cur.pma.capacity
    cur.cache_state()  # cache t=0 at the small capacity
    cur.advance(1)  # the 200-edge batch grows the PMA
    assert cur.pma.capacity > cap_before
    cur.advance(0)  # distance 0 from the cache: restore, shrinking geometry
    assert cur.cache_restores == 1
    assert cur.pma.capacity == cap_before
    cur.pma.check_invariants()
    assert _cursor_edge_set(cur) == _snapshot_edge_set(dtdg, 0)

    # Through a graph the restore happens when the storage is next read.
    gg = GPMAGraph(dtdg)
    gg.get_graph(1)
    assert gg.pma.capacity > cap_before
    gg.get_graph(0)
    assert gg.pma.capacity == cap_before
    assert gg.cache_restores == 1
    gg.pma.check_invariants()
    assert _edge_set(gg) == _snapshot_edge_set(dtdg, 0)
    assert gg.snapshot_version == 0


# ---------------------------------------------------------------------------
# Positioning is logical: batches are replayed only for a build
# ---------------------------------------------------------------------------
def test_each_batch_applied_at_most_once_per_epoch(random_dtdg):
    """Forward sweep + LIFO walk + wrap, twice: T-1 batches an epoch, and the
    wrap is one restore of the base graph instead of T-1 reverse batches."""
    T = random_dtdg.num_timestamps
    gg = GPMAGraph(random_dtdg)
    ex = TemporalExecutor(gg, ctx_cache_size=T)
    for epoch in (1, 2):
        for t in range(T):
            assert _ctx_edge_set(ex.begin_timestamp(t)) == _snapshot_edge_set(random_dtdg, t)
        ex.end_sequence_forward()
        for t in range(T - 1, -1, -1):
            assert _ctx_edge_set(ex.backward_context(t)) == _snapshot_edge_set(random_dtdg, t)
        assert gg.update_batches_applied == T - 1  # epoch 2 is all store hits
        assert gg.cache_restores == 0
    # With a store too small to keep an epoch, every forward build replays its
    # one batch; the backward walk and the wrap still replay none.
    small = GPMAGraph(random_dtdg)
    ex = TemporalExecutor(small, ctx_cache_size=3)
    for epoch in (1, 2):
        for t0 in (0, 3):
            for t in (t0, t0 + 1, t0 + 2):
                assert _ctx_edge_set(ex.begin_timestamp(t)) == _snapshot_edge_set(random_dtdg, t)
            ex.end_sequence_forward()
            for t in (t0 + 2, t0 + 1, t0):
                assert _ctx_edge_set(ex.backward_context(t)) == _snapshot_edge_set(random_dtdg, t)
        assert small.update_batches_applied == epoch * (T - 1)
        assert small.cache_restores == epoch - 1  # the wrap T-1 -> 0


def test_context_lru_hit_replays_nothing(random_dtdg):
    """The executor's backward walk takes every context from its LRU: the
    graph is repositioned logically and its PMA is not touched."""
    from repro.core.executor import TemporalExecutor

    gg = GPMAGraph(random_dtdg)
    ex = TemporalExecutor(gg)
    for t in range(4):
        ex.begin_timestamp(t)
    ex.end_sequence_forward()
    before, hits = gg.update_batches_applied, ex.ctx_cache_hits
    for t in range(3, -1, -1):
        ctx = ex.backward_context(t)
        assert ctx.snapshot_key == random_dtdg.version_of(t)
    assert ex.ctx_cache_hits == hits + 4
    assert gg.update_batches_applied == before == 3
    assert gg.cache_restores == 0


# ---------------------------------------------------------------------------
# NaiveGraph reports the same reuse statistics
# ---------------------------------------------------------------------------
def test_naive_reuse_counters(random_dtdg):
    ng = NaiveGraph(random_dtdg)
    # Preprocessing builds each snapshot once: one miss per timestamp.
    assert ng.csr_cache_misses == random_dtdg.num_timestamps
    for t in range(3):
        ng.get_graph(t)
    for t in range(2, -1, -1):
        ng.get_backward_graph(t)
    assert ng.csr_cache_hits == 3  # backward reuses the forward builds
    assert ng.cache_stats()["csr_cache_misses"] == random_dtdg.num_timestamps
