"""Failure injection: corrupted state and misuse must fail loudly.

A framework that silently mis-trains is worse than one that crashes; these
tests pin the error behaviour of every layer of the stack.
"""

from __future__ import annotations

import threading

import networkx as nx
import numpy as np
import pytest

from repro.compiler import compile_vertex_program
from repro.core import TemporalExecutor
from repro.core.module import graph_aggregate
from repro.graph import DTDG, GPMAGraph, NaiveGraph, StaticGraph
from repro.pma import PackedMemoryArray, SPACE_KEY
from repro.tensor import Tensor, functional as F


# ---------------------------------------------------------------------------
# PMA corruption detection
# ---------------------------------------------------------------------------
def test_pma_detects_gap_in_prefix():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(30))
    seg = int(np.flatnonzero(pma.segment_counts() > 1)[0])
    pma.keys[seg * pma.seg_size] = SPACE_KEY  # punch a hole in a prefix
    with pytest.raises(AssertionError, match="SPACE inside prefix"):
        pma.check_invariants()


def test_pma_detects_unsorted_prefix():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(30))
    seg = int(np.flatnonzero(pma.segment_counts() > 1)[0])
    base = seg * pma.seg_size
    pma.keys[base], pma.keys[base + 1] = pma.keys[base + 1], pma.keys[base]
    with pytest.raises(AssertionError, match="sorted"):
        pma.check_invariants()


def test_pma_detects_count_drift():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(10))
    pma.n_items += 1
    with pytest.raises(AssertionError, match="n_items"):
        pma.check_invariants()


# ---------------------------------------------------------------------------
# Executor misuse
# ---------------------------------------------------------------------------
@pytest.fixture
def simple_setup(rng):
    g = nx.gnp_random_graph(10, 0.3, seed=1, directed=True)
    sg = StaticGraph.from_networkx(g)
    ex = TemporalExecutor(sg)
    prog = compile_vertex_program(
        lambda v: v.agg_sum(lambda nb: nb.h),
        feature_widths={"h": "v"}, grad_features={"h"}, name="fi_sum",
    )
    return sg, ex, prog


def test_aggregate_before_begin_timestamp(simple_setup, rng):
    sg, ex, prog = simple_setup
    x = Tensor(rng.standard_normal((10, 2)).astype(np.float32), requires_grad=True)
    with pytest.raises(RuntimeError):
        graph_aggregate(prog, ex, {"h": x})


def test_double_backward_on_same_tape(simple_setup, rng):
    """The tape frees state during backward; a second sweep must raise (the
    PyTorch behaviour) and leave grads and the executor's stacks intact."""
    sg, ex, prog = simple_setup
    ex.begin_timestamp(0)
    x = Tensor(rng.standard_normal((10, 2)).astype(np.float32), requires_grad=True)
    out = F.sum(graph_aggregate(prog, ex, {"h": x}))
    out.backward()
    ex.check_drained()
    before = x.grad.copy()
    with pytest.raises(RuntimeError):
        out.backward()
    ex.check_drained()
    assert np.allclose(x.grad, before)


def test_forward_without_backward_leaves_stack_detectable(simple_setup, rng):
    sg, ex, prog = simple_setup
    ex.begin_timestamp(0)
    x = Tensor(rng.standard_normal((10, 2)).astype(np.float32), requires_grad=True)
    graph_aggregate(prog, ex, {"h": x})
    with pytest.raises(RuntimeError, match="not drained"):
        ex.check_drained()
    ex.reset()  # documented recovery path
    ex.check_drained()


def test_feature_shape_mismatch_fails(simple_setup, rng):
    sg, ex, prog = simple_setup
    ex.begin_timestamp(0)
    bad = Tensor(rng.standard_normal((7, 2)).astype(np.float32))  # 7 != 10 nodes
    with pytest.raises((ValueError, IndexError)):
        graph_aggregate(prog, ex, {"h": bad})


# ---------------------------------------------------------------------------
# Dynamic-graph misuse
# ---------------------------------------------------------------------------
def _tiny_dtdg():
    return DTDG(
        [
            (np.array([0, 1]), np.array([1, 2])),
            (np.array([0, 1, 2]), np.array([1, 2, 0])),
        ],
        4,
    )


def test_naive_graph_bad_timestamp():
    ng = NaiveGraph(_tiny_dtdg())
    with pytest.raises(IndexError):
        ng.get_graph(5)
        ng.forward_csr()


def test_gpma_graph_recovers_after_bad_timestamp():
    gg = GPMAGraph(_tiny_dtdg())
    with pytest.raises(IndexError):
        gg.get_graph(99)
    gg.get_graph(1)  # still usable
    gg.pma.check_invariants()
    assert gg.num_edges == 3


def test_executor_backward_without_forward_graph_stack():
    gg = GPMAGraph(_tiny_dtdg())
    ex = TemporalExecutor(gg)
    with pytest.raises(RuntimeError, match="underflow"):
        ex.backward_context(0)


# ---------------------------------------------------------------------------
# NaN / Inf propagation is visible, not masked
# ---------------------------------------------------------------------------
def test_nan_features_propagate_to_loss(simple_setup):
    sg, ex, prog = simple_setup
    ex.begin_timestamp(0)
    x = np.full((10, 2), np.nan, dtype=np.float32)
    out, _ = prog.forward(ex.current_context(), {"h": x})
    assert np.isnan(out).any()  # no silent zeroing of bad inputs


# ---------------------------------------------------------------------------
# Allocator thread safety
# ---------------------------------------------------------------------------
def test_memory_tracker_concurrent_accounting():
    from repro.device import MemoryTracker

    tracker = MemoryTracker()
    errors = []

    def worker():
        try:
            for _ in range(200):
                arr = tracker.track(np.zeros(16, dtype=np.float32))
                del arr
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    import gc

    gc.collect()
    assert tracker.current_bytes == 0
    assert tracker.total_allocated_bytes == 8 * 200 * 64
