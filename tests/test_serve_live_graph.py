"""The serving engine's live graph: the newest snapshot, built from DTDG keys.

* every array the live view builds, and every array of the engine's
  context, equals a fresh ``GPMAGraph`` build and a fresh ``NaiveGraph``
  pre-build of the same timestamp, dtype included, after every appended batch (mixed, delete-only, fully redundant
  and empty; identity and degree order), and after a batch that changes
  nothing the engine's executor reuses its context instead of building;
* the engine reports the version it serves from boot on: the newest
  snapshot's, on a DTDG with more than one;
* serving an update and a query makes no ``PackedMemoryArray`` call and no
  ``UpdateCursor``: the caller's ``GPMAGraph`` never makes its PMA.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import DTDG, EdgeUpdate, GPMAGraph, NaiveGraph
from repro.graph.snapshot_builder import UpdateCursor
from repro.pma import PackedMemoryArray
from repro.serve import InferenceEngine, random_update_batches, serial_reference
from repro.train import STGraphNodeRegressor

F, HIDDEN = 6, 8


def _arrays(snap):
    fwd, bwd = snap.fwd, snap.bwd
    return (
        fwd.row_offset, fwd.col_indices, fwd.eids, fwd.node_ids,
        bwd.row_offset, bwd.col_indices, bwd.eids, bwd.node_ids,
        snap.in_deg, snap.out_deg,
    )


def _ctx_arrays(ctx):
    return (
        ctx.fwd_row, ctx.fwd_col, ctx.fwd_eids, ctx.fwd_node_ids,
        ctx.bwd_row, ctx.bwd_col, ctx.bwd_eids, ctx.bwd_node_ids,
        ctx.in_deg, ctx.out_deg,
    )


#: Where the out-CSR's labels sit in :func:`_arrays` / :func:`_ctx_arrays`.
_BWD_EIDS = 6


def _assert_same(got_arrays, want_arrays, sort_by_degree):
    assert want_arrays[_BWD_EIDS] is None  # the out-CSR's labels are its positions
    for i, (got, want) in enumerate(zip(got_arrays, want_arrays)):
        if want is None:
            assert got is None and (i == _BWD_EIDS or not sort_by_degree)
            continue
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _batch(rng, keys, n, shape):
    """One update batch of ``shape`` against the sorted snapshot ``keys``."""
    absent = np.setdiff1d(np.arange(n * n), keys)
    if shape == "mixed":  # in-batch duplicates, present adds and absent deletes too
        add = rng.integers(0, n * n, int(rng.integers(1, 2 * n)))
        delete = np.concatenate([rng.choice(keys, min(len(keys), 3)), rng.integers(0, n * n, 2)])
    elif shape == "delete-only":
        add = keys[:0]
        delete = rng.choice(keys, min(len(keys), int(rng.integers(1, n)))) if len(keys) else keys[:0]
    elif shape == "redundant":  # adds already there, deletes of absent edges: a no-op
        add = rng.choice(keys, min(len(keys), 4)) if len(keys) else keys[:0]
        delete = rng.choice(absent, min(len(absent), 4)) if len(absent) else keys[:0]
    else:
        add = delete = keys[:0]
    return EdgeUpdate(add // n, add % n, delete // n, delete % n)


@given(
    n=st.integers(2, 24),
    seed=st.integers(0, 2**32 - 1),
    snapshots=st.integers(1, 3),
    shapes=st.lists(st.sampled_from(["mixed", "delete-only", "redundant", "empty"]), min_size=1, max_size=6),
    sort_by_degree=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_live_view_equals_a_fresh_gpma_build_at_every_update(n, seed, snapshots, shapes, sort_by_degree):
    rng = np.random.default_rng(seed)
    snaps = []
    for _ in range(snapshots):
        m = int(rng.integers(0, 3 * n))
        snaps.append((rng.integers(0, n, m), rng.integers(0, n, m)))
    dtdg = DTDG(snaps, n)
    features = np.zeros((n, F), dtype=np.float32)
    engine = InferenceEngine(STGraphNodeRegressor(F, HIDDEN), GPMAGraph(dtdg, sort_by_degree), features)
    live, executor = engine.graph, engine._executor
    assert live.dtdg is dtdg
    ctx = None
    for shape in [None, *shapes]:
        if shape is not None:
            dtdg.append_update(_batch(rng, dtdg.snapshot_keys(-1), n, shape))
        t = dtdg.num_timestamps - 1
        misses = live.csr_cache_misses
        previous, ctx = ctx, executor.begin_inference(t)
        if shape is not None and dtdg.updates[t].num_changes == 0:
            # a no-op batch keeps the version: the engine's context is reused
            assert ctx is previous and live.csr_cache_misses == misses
        else:
            assert ctx is not previous and live.csr_cache_misses == misses + 1
        fresh = GPMAGraph(dtdg, sort_by_degree).get_graph(t)
        assert live.snapshot_version == fresh.snapshot_version == dtdg.version_of(t) == ctx.snapshot_key
        assert live.num_edges == fresh.num_edges
        want = _arrays(fresh.snapshot())
        _assert_same(_ctx_arrays(ctx), want, sort_by_degree)
        _assert_same(_arrays(live.snapshot()), want, sort_by_degree)
        naive = NaiveGraph(dtdg, sort_by_degree).get_graph(t)
        assert naive.snapshot_version == ctx.snapshot_key and naive.num_edges == live.num_edges
        _assert_same(_arrays(naive.snapshot()), want, sort_by_degree)
    assert live.csr_cache_hits == 0  # a graph that builds on demand keeps nothing to hit


def _distinct_snapshots(rng, n, count):
    snaps = []
    for _ in range(count):
        src, dst = rng.integers(0, n, 5 * n), rng.integers(0, n, 5 * n)
        keep = src != dst
        snaps.append((src[keep], dst[keep]))
    return snaps


def test_boot_version_is_the_newest_snapshots(rng):
    """Before any update the engine reports the version it will serve: the
    newest snapshot's, not the caller's graph's position (timestamp 0)."""
    n = 32
    dtdg = DTDG(_distinct_snapshots(rng, n, 3), n)
    assert dtdg.version_of(2) == 2
    feats = rng.standard_normal((n, F)).astype(np.float32)
    model = STGraphNodeRegressor(F, HIDDEN)
    eng = InferenceEngine(model, GPMAGraph(dtdg), feats)
    assert eng.latest_version == 2
    assert eng.stats()["latest_version"] == 2
    with eng:
        res = eng.query(5)
    assert (res.version, res.timestamp) == (2, 2)
    assert res.version == eng.latest_version
    ref = serial_reference(model, dtdg, feats, [2])
    assert np.array_equal(res.value, ref[2][0][5])


def test_serving_makes_no_pma_call(rng, monkeypatch):
    """Updates and queries are served without touching the caller's GPMA
    graph: every PMA method, the cursor's constructor and its replay raise if
    called."""
    n = 40
    dtdg = DTDG(_distinct_snapshots(rng, n, 2), n)
    feats = rng.standard_normal((n, F)).astype(np.float32)
    model = STGraphNodeRegressor(F, HIDDEN)
    graph = GPMAGraph(dtdg)
    eng = InferenceEngine(model, graph, feats)
    updates = random_update_batches(dtdg, 4, seed=3)
    updates.append(EdgeUpdate(*(np.empty(0, dtype=np.int64),) * 4))

    def refuse(*args, **kwargs):
        raise AssertionError("serving called into the PMA")

    with monkeypatch.context() as patch:
        for name in ("insert_batch", "delete_batch", "export_items", "gapped_arrays",
                     "contains_batch", "save_state", "restore_state"):
            patch.setattr(PackedMemoryArray, name, refuse)
        patch.setattr(UpdateCursor, "__init__", refuse)
        patch.setattr(UpdateCursor, "advance", refuse)
        with eng:
            results = [eng.query(0)]
            for i, update in enumerate(updates):
                eng.enqueue_update(update, wait=i % 2 == 0)
                results.append(eng.query(int(rng.integers(0, n)), "prediction"))
            eng.flush()
    assert graph.update_batches_applied == 0 and graph.curr_time == 0
    assert eng.stats()["updates_applied"] == len(updates)
    assert [r.timestamp for r in results] == list(range(1, 2 + len(updates)))
    ref = serial_reference(model, dtdg, feats, sorted({r.timestamp for r in results}))
    for r in results:
        assert np.array_equal(r.value, ref[r.timestamp][1 if r.kind == "prediction" else 0][r.vertex])

