"""TemporalExecutor orchestration: contexts, stacks, drains."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import TemporalExecutor
from repro.core.module import graph_aggregate
from repro.compiler import compile_vertex_program
from repro.device import Device, use_device
from repro.graph import DTDG, GPMAGraph, NaiveGraph, StaticGraph
from repro.tensor import Tensor, functional as F


@pytest.fixture
def static_graph():
    g = nx.gnp_random_graph(12, 0.3, seed=1, directed=True)
    return StaticGraph.from_networkx(g)


@pytest.fixture
def dtdg(rng):
    snaps = []
    keys = {(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)}
    for t in range(4):
        if t:
            keys = set(keys)
            keys.discard(sorted(keys)[t % len(keys)])
            keys.add((t, (t + 2) % 8))
        arr = np.array(sorted(keys), dtype=np.int64)
        snaps.append((arr[:, 0].copy(), arr[:, 1].copy()))
    return DTDG(snaps, 8)


@pytest.fixture
def sum_program():
    return compile_vertex_program(
        lambda v: v.agg_sum(lambda nb: nb.h),
        feature_widths={"h": "v"}, grad_features={"h"}, name="ex_sum",
    )


def test_static_context_cached(static_graph):
    """A static graph takes the keyed LRU like any other: its key is always
    0, so its one context is built once and hit by every later forward and
    backward step."""
    ex = TemporalExecutor(static_graph)
    c0 = ex.begin_timestamp(0)
    c1 = ex.begin_timestamp(1)
    assert c0 is c1  # static graphs build one context
    assert ex.backward_context(1) is c0 and ex.backward_context(0) is c0
    assert ex.begin_inference(2) is c0
    assert (ex.ctx_cache_misses, ex.ctx_cache_hits) == (1, 4)
    assert ex.graph_stack.is_empty  # "the graph-stack is not used"


def test_static_losses_do_not_depend_on_the_context_store():
    """Hitting the one static context moves no bit against building a fresh
    context every step (the store off)."""
    from repro.dataset import load_hungary_chickenpox
    from repro.tensor import init
    from repro.train import STGraphNodeRegressor, STGraphTrainer

    ds = load_hungary_chickenpox(lags=4, scale=1.0, num_timestamps=8)
    runs = []
    for size in (0, 4):
        init.set_seed(0)
        trainer = STGraphTrainer(STGraphNodeRegressor(4, 8), ds.build_graph(), lr=1e-2, sequence_length=3)
        trainer.executor = TemporalExecutor(trainer.graph, ctx_cache_size=size)
        losses = trainer.train(ds.features, ds.targets, epochs=3)
        runs.append(([float(v).hex() for v in losses], trainer.executor.ctx_cache_misses))
    (off, off_misses), (on, on_misses) = runs
    assert on == off
    assert (off_misses, on_misses) == (0, 1)


@pytest.mark.parametrize("kind", ["static", "naive", "gpma"])
def test_begin_timestamp_refuses_to_run_without_grad(kind, static_graph, dtdg):
    """A no-grad forward has no backward to pop a Graph Stack entry, so
    ``begin_timestamp`` refuses it on every graph kind and names
    ``begin_inference``, which positions the same graph without a push."""
    from repro.core.executor import NoGradTimestampError
    from repro.tensor import no_grad

    graph = {"static": lambda: static_graph, "naive": lambda: NaiveGraph(dtdg), "gpma": lambda: GPMAGraph(dtdg)}[kind]()
    ex = TemporalExecutor(graph)
    with no_grad():
        with pytest.raises(NoGradTimestampError, match="begin_inference"):
            ex.begin_timestamp(1)
        assert ex.graph_stack.is_empty and ex.current_timestamp is None
        ex.begin_inference(1)
    assert ex.graph_stack.is_empty and ex.current_timestamp == 1


def test_current_context_requires_begin(static_graph):
    ex = TemporalExecutor(static_graph)
    with pytest.raises(RuntimeError):
        ex.current_context()


def test_dynamic_pushes_graph_stack(dtdg):
    ex = TemporalExecutor(NaiveGraph(dtdg))
    ex.begin_timestamp(0)
    ex.begin_timestamp(1)
    assert len(ex.graph_stack) == 2


def test_backward_context_pops_in_order(dtdg):
    ex = TemporalExecutor(NaiveGraph(dtdg))
    for t in range(3):
        ex.begin_timestamp(t)
    ctx2 = ex.backward_context(2)
    assert ctx2 is ex.backward_context(2)  # cached within timestamp
    ex.backward_context(1)
    ex.backward_context(0)
    assert ex.graph_stack.is_empty


def test_backward_context_out_of_order_raises(dtdg):
    ex = TemporalExecutor(NaiveGraph(dtdg))
    ex.begin_timestamp(0)
    ex.begin_timestamp(1)
    with pytest.raises(RuntimeError, match="LIFO"):
        ex.backward_context(0)  # top of the stack is 1


def test_check_drained(static_graph, sum_program, rng):
    ex = TemporalExecutor(static_graph)
    ex.begin_timestamp(0)
    x = Tensor(rng.standard_normal((12, 3)).astype(np.float32), requires_grad=True)
    out = graph_aggregate(sum_program, ex, {"h": x})
    with pytest.raises(RuntimeError, match="not drained"):
        ex.check_drained()
    F.sum(out).backward()
    ex.check_drained()


def test_aggregate_pushes_only_with_grad(static_graph, sum_program, rng):
    ex = TemporalExecutor(static_graph)
    ex.begin_timestamp(0)
    x_no_grad = Tensor(rng.standard_normal((12, 3)).astype(np.float32))
    graph_aggregate(sum_program, ex, {"h": x_no_grad})
    assert ex.state_stack.is_empty  # nothing requires grad → nothing saved


def test_aggregate_grad_correct(static_graph, sum_program, rng):
    ex = TemporalExecutor(static_graph)
    ex.begin_timestamp(0)
    x = Tensor(rng.standard_normal((12, 3)).astype(np.float32), requires_grad=True)
    out = graph_aggregate(sum_program, ex, {"h": x})
    F.sum(out).backward()
    # grad of sum-aggregate wrt h is the out-degree per node
    assert np.allclose(x.grad[:, 0], static_graph.out_degrees())


def test_full_sequence_roundtrip_dynamic(dtdg, sum_program, rng):
    """Forward 0..3 then backward pops everything, graph ends at t=0."""
    graph = GPMAGraph(dtdg)
    ex = TemporalExecutor(graph)
    total = None
    h = Tensor(rng.standard_normal((8, 2)).astype(np.float32), requires_grad=True)
    state = h
    for t in range(4):
        ex.begin_timestamp(t)
        state = graph_aggregate(sum_program, ex, {"h": state})
        loss = F.sum(F.mul(state, state))
        total = loss if total is None else F.add(total, loss)
    ex.end_sequence_forward()
    total.backward()
    ex.check_drained()
    assert graph.curr_time == 0  # rewound by Get-Backward-Graph
    assert h.grad is not None


def test_reset_clears_state(dtdg, sum_program, rng):
    ex = TemporalExecutor(NaiveGraph(dtdg))
    ex.begin_timestamp(0)
    x = Tensor(rng.standard_normal((8, 2)).astype(np.float32), requires_grad=True)
    graph_aggregate(sum_program, ex, {"h": x})
    ex.reset()
    ex.check_drained()


def test_stats_reporting(static_graph, sum_program, rng):
    ex = TemporalExecutor(static_graph)
    for t in range(3):
        ex.begin_timestamp(t)
        x = Tensor(rng.standard_normal((12, 2)).astype(np.float32), requires_grad=True)
        out = graph_aggregate(sum_program, ex, {"h": x})
        F.sum(out).backward()
    stats = ex.stats()
    assert stats["state_stack_pushes"] == 3
    assert stats["state_stack_peak_depth"] == 1


def test_reset_clears_forward_context(dtdg):
    ex = TemporalExecutor(NaiveGraph(dtdg))
    ex.begin_timestamp(2)
    assert ex.current_timestamp == 2
    ex.reset()
    assert ex.current_timestamp is None
    with pytest.raises(RuntimeError, match="reset"):
        ex.current_context()  # must not serve the dead sequence's context


def test_backward_reuses_forward_context(dtdg):
    """The LIFO backward walk gets the forward pass's contexts back, keyed
    on snapshot identity — no blind invalidation, no rebuild."""
    ex = TemporalExecutor(GPMAGraph(dtdg))
    fwd = [ex.begin_timestamp(t) for t in range(4)]
    ex.end_sequence_forward()
    for t in range(3, -1, -1):
        assert ex.backward_context(t) is fwd[t]
    assert ex.ctx_cache_hits == 4
    assert ex.ctx_cache_misses == 4  # the forward builds


def test_backward_zero_csr_rebuilds(dtdg, fresh_device):
    """With both cache levels on, the whole backward walk re-runs
    Algorithm 3 exactly zero times."""
    ex = TemporalExecutor(GPMAGraph(dtdg))
    for t in range(4):
        ex.begin_timestamp(t)
        ex.current_context().fwd_row  # touch like a kernel would
    ex.end_sequence_forward()
    misses_after_fwd = fresh_device.totals.read().count("csr_cache_misses")
    for t in range(3, -1, -1):
        ex.backward_context(t)
    assert fresh_device.totals.read().count("csr_cache_misses") == misses_after_fwd


def test_noop_timestamp_reuses_context():
    """A no-op update batch keeps the snapshot version, so the next
    timestamp reuses the previous context object outright."""
    edges = np.array([(0, 1), (1, 2), (2, 0)], dtype=np.int64)
    snap = (edges[:, 0].copy(), edges[:, 1].copy())
    graph = GPMAGraph(DTDG([snap, snap], 4))
    ex = TemporalExecutor(graph)
    c0 = ex.begin_timestamp(0)
    c1 = ex.begin_timestamp(1)
    assert c1 is c0
    assert ex.ctx_cache_hits == 1
    assert graph.noop_updates_skipped == 1


def test_ctx_cache_size_zero_rebuilds_every_context(dtdg):
    ex = TemporalExecutor(GPMAGraph(dtdg), ctx_cache_size=0)
    fwd = [ex.begin_timestamp(t) for t in range(4)]
    ex.end_sequence_forward()
    for t in range(3, -1, -1):
        assert ex.backward_context(t) is not fwd[t]  # rebuilt every step
    assert ex.ctx_cache_hits == 0
    assert ex.ctx_cache_misses == 0  # cache fully bypassed, not just missing


@pytest.mark.parametrize("ctx_cache_size", [0, 1])
def test_begin_timestamp_never_holds_two_builds(ctx_cache_size):
    """``reset_peak()`` before each of ``begin_timestamp(1..3)``: the peak of
    every build array's tag during the positioning is its bytes resident
    before or after it, whichever is more, so the previous build is not kept
    alive through the new one, not even by the forward or backward pointer.
    The ``pma.*`` tags are left out: the PMA's own resize holds its old and
    new storage at once, and a build, one label array lighter than it was,
    no longer outweighs that.  A refused ``t`` leaves the executor and the
    Graph Stack as they were."""
    n, edges = 400, 3000
    rng = np.random.default_rng(11)
    dtdg = DTDG([(rng.integers(0, n, edges), rng.integers(0, n, edges)) for _ in range(4)], n)
    device = Device()
    with use_device(device):
        ex = TemporalExecutor(GPMAGraph(dtdg), ctx_cache_size=ctx_cache_size)
        ex.begin_timestamp(0)
        for t in range(1, 4):
            device.tracker.reset_peak()
            before = device.tracker.bytes_by_tag()
            ex.begin_timestamp(t)
            after = device.tracker.bytes_by_tag()
            peaks = {tag: p for tag, p in device.tracker.peak_bytes_by_tag().items() if not tag.startswith("pma.")}
            assert "gpma.bwd.col" in peaks
            assert peaks == {tag: max(before.get(tag, 0), after.get(tag, 0)) for tag in peaks}
        ctx, depth = ex.current_context(), len(ex.graph_stack)
        with pytest.raises(IndexError):
            ex.begin_timestamp(4)
        assert ex.current_context() is ctx
        assert ex.current_timestamp == 3
        assert ex.graph.curr_time == 3
        assert len(ex.graph_stack) == depth == 4


def test_single_timestamp_sequence_pops_stack(dtdg, sum_program, rng):
    """Length-1 sequences: the backward step must pop the graph stack even
    when the context is served from the cache."""
    ex = TemporalExecutor(GPMAGraph(dtdg))
    for _ in range(2):
        ex.begin_timestamp(0)
        x = Tensor(rng.standard_normal((8, 2)).astype(np.float32), requires_grad=True)
        out = graph_aggregate(sum_program, ex, {"h": x})
        F.sum(out).backward()
        ex.check_drained()


def test_stats_include_ctx_counters(dtdg):
    ex = TemporalExecutor(GPMAGraph(dtdg))
    ex.begin_timestamp(0)
    stats = ex.stats()
    assert stats["ctx_cache_misses"] == 1
    assert stats["ctx_cache_hits"] == 0


def test_gnn_time_profiled(static_graph, sum_program, rng, fresh_device):
    ex = TemporalExecutor(static_graph)
    ex.begin_timestamp(0)
    x = Tensor(rng.standard_normal((12, 2)).astype(np.float32), requires_grad=True)
    out = graph_aggregate(sum_program, ex, {"h": x})
    F.sum(out).backward()
    totals = fresh_device.totals.read()
    assert totals.seconds("gnn") > 0
    assert totals.calls("device.kernel_launch") == 2  # forward + backward kernel, one record each
    assert totals.calls("core.interpret") == 0
