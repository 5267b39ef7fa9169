"""Serving's live build is patched, not rebuilt, and is still one build.

* ``patch_snapshot`` chained over random update batches on random DTDGs
  equals ``build_snapshot_arrays`` over the new keys after every step: all
  ten arrays, dtypes included, bitwise, in identity and degree order, and
  across the int32 / int64 width switch (the limit lowered, as in
  ``test_snapshot_index_width.py``);
* the same for the shapes a splice can get wrong: an empty first snapshot,
  a row emptied, deletes only, adds only, an add and a delete in one row,
  and adds into adjacent rows that share one insertion point (their in-CSR
  order is ``(dst, src)``, not source alone);
* a batch that is no exact set difference raises instead of patching, and
  the patch releases the build it consumes before it adopts its own;
* the live graph patches its kept build when one non-empty update, small
  against the build, separates it from the position (an empty one may ride
  along), and builds in full when two updates or one large one do;
* in serving, the build the live graph keeps is the executor's context's
  arrays (no byte of its own), and after 20 updates the ``gpma.*`` bytes
  are exactly one build's.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.graph.csr as csr_module
from repro.device import Device, use_device
from repro.graph import DTDG, EdgeUpdate, GPMAGraph
from repro.graph.snapshot_builder import build_snapshot_arrays, patch_snapshot
from repro.serve import InferenceEngine, random_update_batches
from repro.serve.engine import _LiveGraph
from repro.tensor import init
from repro.train import STGraphNodeRegressor


def _arrays(snap):
    fwd, bwd = snap.fwd, snap.bwd
    return (
        fwd.row_offset, fwd.col_indices, fwd.eids, fwd.node_ids,
        bwd.row_offset, bwd.col_indices, bwd.eids, bwd.node_ids,
        snap.in_deg, snap.out_deg,
    )


def _assert_bitwise(got, want):
    for g, w in zip(_arrays(got), _arrays(want)):
        if w is None:
            assert g is None
            continue
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def _patch_chain(dtdg: DTDG, sort_by_degree: bool) -> int:
    """Patch snapshot 0's build forward through every stored update,
    checking each step against a fresh build; returns the steps patched."""
    device = Device()
    n = dtdg.num_nodes
    with use_device(device):
        build = build_snapshot_arrays(dtdg.snapshot_keys(0), n, sort_by_degree, device.alloc)
        for t in range(1, dtdg.num_timestamps):
            build = patch_snapshot(build, dtdg.updates[t], n, sort_by_degree, device.alloc)
            _assert_bitwise(build, build_snapshot_arrays(dtdg.snapshot_keys(t), n, sort_by_degree, device.alloc))
    return dtdg.num_timestamps - 1


def _dtdg(n, snapshots):
    """A DTDG over explicit per-snapshot edge lists."""
    return DTDG([(np.array([e[0] for e in s], dtype=np.int64), np.array([e[1] for e in s], dtype=np.int64))
                 for s in snapshots], n)


@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 8),
    sort_by_degree=st.booleans(),
    limit=st.one_of(st.none(), st.integers(1, 60)),
)
@settings(max_examples=120, deadline=None)
def test_a_patch_chain_equals_a_fresh_build_at_every_step(n, seed, steps, sort_by_degree, limit):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 2 * n * n + 1))
    dtdg = DTDG([(rng.integers(0, n, m), rng.integers(0, n, m))], n)
    for _ in range(steps):
        keys = dtdg.snapshot_keys(-1)
        absent = np.setdiff1d(np.arange(n * n), keys)
        delete = rng.choice(keys, int(rng.integers(0, len(keys) + 1)), replace=False) if len(keys) else keys
        add = rng.choice(absent, int(rng.integers(0, len(absent) + 1)), replace=False) if len(absent) else absent
        dtdg.append_update(EdgeUpdate(add // n, add % n, delete // n, delete % n))
    with pytest.MonkeyPatch.context() as patch:
        if limit is not None:  # a limit among the edge counts switches width mid-chain
            patch.setattr(csr_module, "_INT32_MAX", limit)
        assert _patch_chain(dtdg, sort_by_degree) == steps


CASES = {
    "empty first snapshot": (4, [[], [(0, 1), (2, 1), (3, 0)], [(0, 1)]]),
    "row emptied": (5, [[(1, 0), (1, 2), (1, 4), (0, 2), (3, 2)], [(0, 2), (3, 2)], [(0, 2), (3, 2), (1, 3)], [(1, 3)]]),
    "deletes only": (5, [[(0, 1), (0, 3), (2, 3), (4, 0), (4, 4)], [(0, 3), (4, 0)], [(0, 3)]]),
    "adds only": (5, [[(2, 2)], [(2, 2), (0, 4), (4, 0)], [(0, 0), (0, 4), (2, 2), (3, 1), (4, 0), (4, 4)]]),
    "an add and a delete in one row": (8, [[(1, 2), (1, 5), (3, 5)], [(1, 3), (1, 5), (1, 7), (3, 5)],
                                           [(1, 0), (1, 7), (3, 5)]]),
    # In-row 1 holds source 0 and in-row 2 source 3: 3 -> 1 goes at the end
    # of row 1 and 0 -> 2 at the start of row 2, one insertion point; in
    # the out-CSR, 1 -> 3 ends row 1 where 2 -> 0 starts row 2.
    "adds into adjacent rows sharing an insertion point": (4, [[(0, 1), (3, 2), (1, 0), (2, 1)],
                                                               [(0, 1), (3, 2), (1, 0), (2, 1), (3, 1), (0, 2),
                                                                (1, 3), (2, 0)]]),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("sort_by_degree", [False, True])
@pytest.mark.parametrize("wide", [False, True])
def test_the_shapes_a_splice_can_get_wrong(monkeypatch, case, sort_by_degree, wide):
    n, snapshots = CASES[case]
    if wide:
        monkeypatch.setattr(csr_module, "_INT32_MAX", 1)
    assert _patch_chain(_dtdg(n, snapshots), sort_by_degree) == len(snapshots) - 1


def test_a_batch_that_is_no_exact_set_difference_raises():
    device = Device()
    with use_device(device):
        build = build_snapshot_arrays(np.array([1, 6]), 4, False, device.alloc)  # edges 0 -> 1, 1 -> 2
        one = np.array([1])
        none = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match="exact set difference"):
            patch_snapshot(build, EdgeUpdate(none, none, one, one), 4, False, device.alloc)  # 1 -> 1 absent
        with pytest.raises(ValueError, match="exact set difference"):
            patch_snapshot(build, EdgeUpdate(np.array([0]), one, none, none), 4, False, device.alloc)  # 0 -> 1 there


def test_the_patch_releases_its_input_before_it_adopts_its_output():
    rng = np.random.default_rng(4)
    n = 300
    dtdg = DTDG([(rng.integers(0, n, 3000), rng.integers(0, n, 3000))], n)
    for batch in random_update_batches(dtdg, 3, num_adds=32, num_deletes=16, seed=1):
        dtdg.append_update(batch)
    device = Device()
    with use_device(device):
        held = [build_snapshot_arrays(dtdg.snapshot_keys(0), n, False, device.alloc)]
        for t in range(1, dtdg.num_timestamps):
            before = device.tracker.current_bytes
            device.tracker.reset_peak()
            held.append(patch_snapshot(held.pop(), dtdg.updates[t], n, False, device.alloc))
            assert device.tracker.current_bytes == held[0].nbytes()
            assert device.tracker.peak_bytes == max(before, device.tracker.current_bytes)


@pytest.mark.parametrize("sort_by_degree", [False, True])
def test_the_live_graph_patches_one_small_update_and_builds_anything_more(sort_by_degree):
    rng = np.random.default_rng(8)
    n = 400
    dtdg = DTDG([(rng.integers(0, n, 4000), rng.integers(0, n, 4000))], n)
    none = np.empty(0, dtype=np.int64)
    empty = EdgeUpdate(none, none, none, none)
    small = random_update_batches(dtdg, 3, num_adds=6, num_deletes=4, seed=3)
    device = Device()
    with use_device(device):
        live = _LiveGraph(dtdg, sort_by_degree)
        live.snapshot()
        steps = [
            ([small[0], empty], "patch"),  # one non-empty update: an empty one keeps the version
            (small[1:], "build"),  # two updates since the build
            # one large update (drawn against snapshot 0; the append drops deletes gone since)
            (random_update_batches(dtdg, 1, num_adds=40, num_deletes=20, seed=4), "build"),
            ([empty], None),  # nothing to patch: the kept build as it is
        ]
        for batches, made in steps:
            for batch in batches:
                dtdg.append_update(batch)
            totals = device.totals.read()
            before = (totals.calls("graph.patch_snapshot"), totals.calls("graph.build_snapshot"))
            t = live.get_graph(dtdg.num_timestamps - 1).curr_time
            _assert_bitwise(live.snapshot(), build_snapshot_arrays(dtdg.snapshot_keys(t), n, sort_by_degree, device.alloc))
            totals = device.totals.read()
            after = (totals.calls("graph.patch_snapshot"), totals.calls("graph.build_snapshot"))
            assert np.subtract(after, before).tolist() == {"patch": [1, 0], "build": [0, 1], None: [0, 0]}[made]
    assert live.csr_cache_misses == 5


N, EDGES, F, HIDDEN = 600, 16_000, 8, 8  # a 48-edge batch is one edge in 256 or fewer: patched


def _engine(device):
    rng = np.random.default_rng(9)
    dtdg = DTDG([(rng.integers(0, N, EDGES), rng.integers(0, N, EDGES)) for _ in range(2)], N)
    features = rng.standard_normal((N, F)).astype(np.float32)
    init.set_seed(3)
    with use_device(device):
        return InferenceEngine(STGraphNodeRegressor(F, HIDDEN), GPMAGraph(dtdg), features), dtdg


def test_the_kept_build_is_the_contexts_arrays():
    device = Device()
    engine, dtdg = _engine(device)
    with use_device(device), engine:
        engine.query(0)
        for batch in random_update_batches(dtdg, 3, num_adds=32, num_deletes=16, seed=2):
            engine.enqueue_update(batch)
            (ctx,) = engine._executor._ctx_cache.values()
            build = engine.graph._build
            assert engine.graph._build_time == engine.graph.curr_time
            for kept, held in [
                (build.fwd.row_offset, ctx.fwd_row), (build.fwd.col_indices, ctx.fwd_col),
                (build.fwd.eids, ctx.fwd_eids), (build.bwd.row_offset, ctx.bwd_row),
                (build.bwd.col_indices, ctx.bwd_col), (build.in_deg, ctx.in_deg), (build.out_deg, ctx.out_deg),
            ]:
                assert np.shares_memory(kept, held)
            engine.query(int(batch.add_dst[0]))
    totals = device.totals.read()
    assert (totals.calls("graph.build_snapshot"), totals.calls("graph.patch_snapshot")) == (1, 3)


def test_twenty_updates_leave_one_build_on_the_ledger():
    device = Device()
    engine, dtdg = _engine(device)
    with use_device(device), engine:
        engine.query(0)
        for batch in random_update_batches(dtdg, 20, num_adds=32, num_deletes=16, seed=6):
            engine.enqueue_update(batch)
            engine.query(int(batch.add_dst[0]))
        engine.flush()
    assert engine.stats()["updates_applied"] == 20
    totals = device.totals.read()
    assert (totals.calls("graph.build_snapshot"), totals.calls("graph.patch_snapshot")) == (1, 20)
    edges = engine.graph.num_edges
    one_build = (3 * edges + 2 * (N + 1) + 2 * N) * 4  # int32: two CSRs (one label array), two degree arrays
    gpma = sum(v for tag, v in device.tracker.bytes_by_tag().items() if tag.startswith("gpma."))
    assert gpma == one_build == engine.graph._build.nbytes()
