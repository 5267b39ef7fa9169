"""Snapshots on demand: the linear-time build and logical positioning.

* ``build_snapshot_arrays`` against the frozen comparison-sort build in
  ``tests/_snapshot_reference.py`` (all ten arrays; each at the index width,
  and ``None`` node ids and out-CSR labels where the reference has identity
  ``arange``);
* a state machine that moves a :class:`GPMAGraph` in random order, directly
  and through a :class:`TemporalExecutor` (its context store on, off and at
  capacity 1; live ``append_update``, planned ``"cache"`` faults), and checks
  every exposed array and every served ``GraphContext`` against
  ``DTDG.snapshot_edges(t)`` and every ``snapshot_key`` against
  ``DTDG.version_of(t)`` and against a second graph over the same DTDG that
  got there in a different order;
* the regression for ``num_edges`` reading a parked PMA.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.core.executor import TemporalExecutor
from repro.device import current_device
from repro.graph import DTDG, GPMAGraph, NaiveGraph
from repro.graph.csr import index_dtype
from repro.graph.dtdg import EdgeUpdate
from repro.graph.labels import encode_edges
from repro.graph.snapshot_builder import build_snapshot_arrays
from repro.pma import PackedMemoryArray
from repro.resilience import FaultInjector, FaultPlan, FaultSite, use_fault_plan
from tests._snapshot_reference import reference_build_snapshot_arrays, reference_gapped_csr_arrays


def _ten_arrays(snap):
    return (
        snap.fwd.row_offset, snap.fwd.col_indices, snap.fwd.eids, snap.fwd.node_ids,
        snap.bwd.row_offset, snap.bwd.col_indices, snap.bwd.eids, snap.bwd.node_ids,
        snap.in_deg, snap.out_deg,
    )


#: Where the out-CSR's labels sit in :func:`_ten_arrays`.
_BWD_EIDS = 6


def _csr_arrays(graph):
    fwd, bwd = graph.forward_csr(), graph.backward_csr()
    return (fwd.row_offset, fwd.col_indices, fwd.eids, bwd.row_offset, bwd.col_indices, bwd.eids)


# ---------------------------------------------------------------------------
# Differential: one compaction + counting sort == gapped view + argsort
# ---------------------------------------------------------------------------
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.tuples(st.booleans(), st.integers(0, 60)), min_size=1, max_size=8),
    sort_by_degree=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_build_equals_frozen_reference_after_random_walks(n, seed, steps, sort_by_degree):
    rng = np.random.default_rng(seed)
    alloc = current_device().alloc
    pma = PackedMemoryArray(capacity=64)
    for insert, size in steps:
        keys = encode_edges(rng.integers(0, n, size), rng.integers(0, n, size), n)
        if insert:
            pma.insert_batch(keys)
        else:
            held = pma.export_items()
            # half held keys, half arbitrary ones (most of them absent)
            pick = held[rng.integers(0, len(held), size // 2)] if len(held) else keys[:0]
            pma.delete_batch(np.concatenate([pick, keys[size // 2 :]]))
        got = _ten_arrays(build_snapshot_arrays(pma.export_items(), n, sort_by_degree, alloc))
        want = _ten_arrays(reference_build_snapshot_arrays(pma, n, sort_by_degree, alloc))
        # The frozen build is int64 with arange node ids and out-CSR labels;
        # the build keeps one index width for every array and no array for an
        # identity: the out-CSR's labels always, the node ids without order.
        width = index_dtype(n, pma.n_items)
        assert got[_BWD_EIDS] is None
        for i, (g, w) in enumerate(zip(got, want)):
            if g is None:
                assert (i == _BWD_EIDS or not sort_by_degree) and np.array_equal(w, np.arange(len(w)))
                continue
            assert g.dtype == width
            assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# State machine: any order of moves and reads exposes DTDG.snapshot_edges(t)
# ---------------------------------------------------------------------------
@st.composite
def _dtdgs(draw):
    """Small series with no-op boundaries, an emptied snapshot and self-loops."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    snaps: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["fresh", "fresh", "same", "empty"]))
        if kind == "same" and snaps:
            snaps.append(snaps[-1])
            continue
        e = 0 if kind == "empty" else int(rng.integers(0, 3 * n))
        keys = np.unique(encode_edges(rng.integers(0, n, e), rng.integers(0, n, e), n))
        snaps.append((keys // n, keys % n))
    return DTDG(snaps, n)


class OnDemandSnapshots(RuleBasedStateMachine):
    """``get_graph`` / ``get_backward_graph`` / ``cache_snapshot``, every
    reader and every executor entry point, in random order, under all cache /
    ordering configurations and with the context store off (capacity 0), at
    capacity 1 and at its default."""

    @initialize(
        dtdg=_dtdgs(),
        enable_cache=st.booleans(),
        sort_by_degree=st.booleans(),
        ctx_cache_size=st.sampled_from([0, 1, 4]),
    )
    def build(self, dtdg, enable_cache, sort_by_degree, ctx_cache_size):
        self.dtdg = dtdg
        self.graph = GPMAGraph(dtdg, sort_by_degree=sort_by_degree, enable_cache=enable_cache)
        self.executor = TemporalExecutor(self.graph, ctx_cache_size=ctx_cache_size)
        # A second graph over the same DTDG, moved only by ``move_other``: it
        # reaches every timestamp in a different order than ``graph`` does.
        self.other = GPMAGraph(dtdg, enable_cache=not enable_cache)
        self.t = 0
        # Planned faults are appended to the armed plan as the run goes.
        self.injector = FaultInjector(FaultPlan(name="state-machine"))

    def _expected_keys(self) -> np.ndarray:
        return encode_edges(*self.dtdg.snapshot_edges(self.t), self.dtdg.num_nodes)

    def _moved_to(self, t):
        self.t = t
        assert self.graph.curr_time == t

    def _check_context(self, ctx, t):
        n = self.dtdg.num_nodes
        want = encode_edges(*self.dtdg.snapshot_edges(t), n)
        dst = np.repeat(np.arange(n, dtype=np.int64), np.diff(ctx.fwd_row))
        assert np.array_equal(encode_edges(ctx.fwd_col, dst, n)[np.argsort(ctx.fwd_eids)], want)
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(ctx.bwd_row))
        assert np.array_equal(encode_edges(src, ctx.bwd_col, n), want)
        assert ctx.bwd_eids is None  # out-CSR labels are its positions
        assert np.array_equal(ctx.in_deg, np.diff(ctx.fwd_row))
        assert np.array_equal(ctx.out_deg, np.diff(ctx.bwd_row))
        assert len(self.executor._ctx_cache) <= self.executor.ctx_cache_size

    @rule(t=st.integers(0, 9), inference=st.booleans())
    def begin(self, t, inference):
        t %= self.dtdg.num_timestamps
        ex = self.executor
        with use_fault_plan(self.injector):
            ctx = (ex.begin_inference if inference else ex.begin_timestamp)(t)
        self._moved_to(t)
        self._check_context(ctx, t)

    @precondition(lambda self: len(self.executor.graph_stack) > 0)
    @rule()
    def backward_context(self):
        ex = self.executor
        t, depth = ex.graph_stack.top(), len(ex.graph_stack)
        with use_fault_plan(self.injector):
            ctx = ex.backward_context(t)
        if len(ex.graph_stack) < depth:  # else: the step's context, kept
            self._moved_to(t)
        self._check_context(ctx, t)

    @precondition(lambda self: self.dtdg.num_timestamps < 9)
    @rule(seed=st.integers(0, 2**32 - 1))
    def append_update(self, seed):
        rng, n = np.random.default_rng(seed), self.dtdg.num_nodes
        e = int(rng.integers(0, 5))  # 0: a no-op boundary
        self.dtdg.append_update(EdgeUpdate(*(rng.integers(0, n, e) for _ in range(4))))

    @rule()
    def plan_cache_fault(self):
        self.injector.plan.sites.append(FaultSite("cache"))

    @rule(t=st.integers(0, 9), backward=st.booleans())
    def move(self, t, backward):
        self.t = t % self.dtdg.num_timestamps
        (self.graph.get_backward_graph if backward else self.graph.get_graph)(self.t)
        assert self.graph.curr_time == self.t

    @rule(t=st.integers(0, 9), backward=st.booleans(), read=st.booleans())
    def move_other(self, t, backward, read):
        """Forward, backward and jump moves; a read parks the PMA there."""
        t %= self.dtdg.num_timestamps
        (self.other.get_backward_graph if backward else self.other.get_graph)(t)
        if read:
            held = self.other.pma.export_items()
            assert np.array_equal(held, encode_edges(*self.dtdg.snapshot_edges(t), self.dtdg.num_nodes))

    @rule(t=st.integers(-3, 12))
    def move_out_of_range(self, t):
        if 0 <= t < self.dtdg.num_timestamps:
            return
        for move in (self.graph.get_graph, self.graph.get_backward_graph):
            with pytest.raises(IndexError):
                move(t)
        assert self.graph.curr_time == self.t

    @invariant()
    def identity_is_order_independent(self):
        """Wherever ``graph`` stands, ``other`` (arriving from wherever its own
        moves left it) exposes the same key: the DTDG's, not a visit order's."""
        self.other.get_graph(self.t)
        assert self.graph.snapshot_key() == self.other.snapshot_key() == self.dtdg.version_of(self.t)

    def teardown(self):
        """After two different histories: equal keys and edges at every ``t``."""
        for t in range(self.dtdg.num_timestamps):
            a, b = self.graph.get_graph(t), self.other.get_backward_graph(t)
            assert a.snapshot_key() == b.snapshot_key() == self.dtdg.version_of(t)
            for x, y in zip(_csr_arrays(a), _csr_arrays(b)):
                assert np.array_equal(x, y)

    @rule()
    def cache_snapshot(self):
        self.graph.cache_snapshot()

    @rule()
    def read_forward_csr(self):
        fwd, n = self.graph.forward_csr(), self.dtdg.num_nodes
        dst = np.repeat(np.arange(n, dtype=np.int64), np.diff(fwd.row_offset))
        keys = encode_edges(fwd.col_indices, dst, n)
        # labels are ranks in key order, so sorting by label sorts the keys
        assert np.array_equal(keys[np.argsort(fwd.eids)], self._expected_keys())
        assert np.array_equal(self.graph.in_degrees(), np.diff(fwd.row_offset))

    @rule()
    def read_backward_csr(self):
        bwd, n = self.graph.backward_csr(), self.dtdg.num_nodes
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(bwd.row_offset))
        assert np.array_equal(encode_edges(src, bwd.col_indices, n), self._expected_keys())
        assert bwd.eids is None  # labels are positions: no array
        assert np.array_equal(self.graph.out_degrees(), np.diff(bwd.row_offset))
        self.graph.validate_label_consistency()

    @rule()
    def read_num_edges(self):
        assert self.graph.num_edges == self.dtdg.snapshot_edge_count(self.t)

    @rule()
    def read_storage(self):
        held = self.graph.pma.export_items()
        assert np.array_equal(held, self._expected_keys())
        self.graph.pma.check_invariants()
        row, col, _ = reference_gapped_csr_arrays(self.graph.pma, self.graph.num_nodes)
        assert int((col[: row[-1]] >= 0).sum()) == self.graph.num_edges


OnDemandSnapshots.TestCase.settings = settings(max_examples=80, stateful_step_count=30, deadline=None)
test_on_demand_snapshots_state_machine = OnDemandSnapshots.TestCase


# ---------------------------------------------------------------------------
# Regression: num_edges answers for the logical position
# ---------------------------------------------------------------------------
def test_num_edges_is_the_logical_positions():
    """After visiting every timestamp the PMA is parked at the last one;
    repositioning at t=0 used to report the parked PMA's count."""
    rng = np.random.default_rng(5)
    n, snaps = 12, []
    for t in range(12):
        keys = np.unique(rng.integers(0, n * n, 20 + 3 * t))
        snaps.append((keys // n, keys % n))
    dtdg = DTDG(snaps, n)
    assert dtdg.snapshot_edge_count(0) != dtdg.snapshot_edge_count(11)
    gg = GPMAGraph(dtdg)
    for t in range(12):
        gg.get_graph(t)
    gg.get_graph(0)
    assert gg.num_edges == dtdg.snapshot_edge_count(0)
    assert gg.storage_bytes() == gg.pma.keys.nbytes
    assert gg.pma.n_items == gg.num_edges
    assert f"E={dtdg.snapshot_edge_count(0)}," in repr(gg)


# ---------------------------------------------------------------------------
# Positioning outside [0, T) is an IndexError that moves nothing
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", [GPMAGraph, NaiveGraph], ids=["gpma", "naive"])
def test_out_of_range_positioning_raises_without_moving(kind):
    dtdg = DTDG([(np.array([0, 1]), np.array([1, 2])), (np.array([0]), np.array([2]))], 3)
    graph = kind(dtdg)
    graph.get_graph(1)
    want = _ten_arrays(graph.snapshot())
    for move in (graph.get_graph, graph.get_backward_graph):
        for t in (2, -1):
            with pytest.raises(IndexError):
                move(t)
    assert (graph.snapshot_version, graph.noop_updates_skipped) == (1, 0)
    for got, expected in zip(_ten_arrays(graph.snapshot()), want):  # still t=1's snapshot
        assert (got is None and expected is None) or np.array_equal(got, expected)
    # Through the executor: a refused begin_timestamp pushes nothing onto the
    # Graph Stack, so the sequence it interrupted still drains.
    ex = TemporalExecutor(graph)
    ex.begin_timestamp(1)
    for t in (-1, 2):
        with pytest.raises(IndexError):
            ex.begin_timestamp(t)
        assert len(ex.graph_stack) == 1
    assert graph.snapshot_version == 1
    ex.backward_context(1)
    ex.check_drained()


def test_appended_timestamp_is_in_range():
    dtdg = DTDG([(np.array([0, 1]), np.array([1, 2])), (np.array([0]), np.array([2]))], 3)
    gg = GPMAGraph(dtdg).get_graph(1)
    with pytest.raises(IndexError):
        gg.get_graph(2)
    t_new = dtdg.append_update(EdgeUpdate(np.array([2]), np.array([0]), np.array([0]), np.array([2])))
    assert gg.get_graph(t_new).snapshot_version == 2  # T grew: the same call is now a move
    assert gg.curr_time == 2
