"""One index width for snapshot structure, and the bytes it comes to.

* ``index_dtype`` at the ``2**31 - 1`` boundary (a pure function: nothing
  that large is allocated);
* StaticGraph, NaiveGraph and GPMAGraph hold every structural array at that
  width for the same edges, with no array for identity ``node_ids`` and, on
  the DTDG builds, none for the out-CSR's labels (its positions), and an
  int64-wide build gives the same aggregation bits as an int32 one;
* a context's aggregation operators wrap the context's own index arrays and
  share one float32 ``ones``: building them copies no structure;
* the tracked ``gpma.*`` bytes of one snapshot build are exactly the two
  CSRs (one label array) and the two degree arrays at four bytes an entry.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.graph.csr as csr_module
from repro.compiler.runtime import GraphContext, spmm
from repro.device import Device, use_device
from repro.graph import DTDG, GPMAGraph, NaiveGraph, StaticGraph
from repro.graph.csr import index_dtype
from repro.graph.labels import decode_edges, encode_edges
from repro.graph.snapshot_builder import build_snapshot_arrays
from repro.pma import PackedMemoryArray

LIMIT = 2**31 - 1


def _edges(n: int, e: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    keys = np.unique(encode_edges(rng.integers(0, n, e), rng.integers(0, n, e), n))
    return decode_edges(keys, n)


def _structure(graph) -> list[np.ndarray]:
    """The structural arrays every graph kind stores (the out-CSR's labels
    are StaticGraph's alone)."""
    fwd, bwd = graph.forward_csr(), graph.backward_csr()
    return [
        fwd.row_offset, fwd.col_indices, fwd.eids, bwd.row_offset, bwd.col_indices,
        graph.in_degrees(), graph.out_degrees(),
    ]


def _graphs(src, dst, n):
    dtdg = DTDG([(src, dst)], n)
    return [StaticGraph(src, dst, n), NaiveGraph(dtdg).get_graph(0), GPMAGraph(dtdg).get_graph(0)]


def test_index_dtype_at_the_int32_boundary():
    assert index_dtype(0, 0) == np.int32
    assert index_dtype(LIMIT - 1, LIMIT - 1) == np.int32
    assert index_dtype(LIMIT, 0) == np.int64
    assert index_dtype(0, LIMIT) == np.int64
    assert index_dtype(LIMIT - 1, LIMIT) == np.int64
    assert index_dtype(2**40, 5) == np.int64


@pytest.mark.parametrize("wide", [False, True])
def test_every_graph_kind_stores_one_width_for_the_same_edges(monkeypatch, wide):
    """The same edges give the same width and the same arrays on all three
    graph kinds; lowering the int32 limit below the graph's size moves every
    array (SciPy's transpose included) to int64 and changes no product bit."""
    n = 60
    src, dst = _edges(n, 400)
    x = np.random.default_rng(1).standard_normal((n, 5)).astype(np.float32)
    narrow = [spmm(GraphContext(g), None, x, d) for g in _graphs(src, dst, n) for d in ("in", "out")]
    if wide:
        monkeypatch.setattr(csr_module, "_INT32_MAX", 8)
    width = index_dtype(n, len(src))
    assert width == (np.int64 if wide else np.int32)
    graphs = _graphs(src, dst, n)
    reference = _structure(graphs[0])
    for graph in graphs:
        arrays = _structure(graph)
        assert [a.dtype for a in arrays] == [width] * len(arrays)
        assert graph.forward_csr().node_ids is None and graph.backward_csr().node_ids is None
        bwd = graph.backward_csr()
        if graph.graph_type == "static":  # explicit labels, at their positions on key-sorted edges
            assert bwd.eids.dtype == width and np.array_equal(bwd.eids, np.arange(bwd.num_edges))
        else:
            assert bwd.eids is None
        for got, want in zip(arrays, reference):
            assert np.array_equal(got, want)
    products = [spmm(GraphContext(g), None, x, d) for g in graphs for d in ("in", "out")]
    for got, want in zip(products, narrow):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["static", "gpma"])
def test_operators_wrap_the_context_arrays_and_share_one_ones(kind):
    n = 50
    src, dst = _edges(n, 300, seed=2)
    graph = StaticGraph(src, dst, n) if kind == "static" else GPMAGraph(DTDG([(src, dst)], n)).get_graph(0)
    ctx = GraphContext(graph)
    op_in, op_out = ctx.operator("in"), ctx.operator("out")
    assert np.shares_memory(op_in.mat.indices, ctx.fwd_col)
    assert np.shares_memory(op_in.mat.indptr, ctx.fwd_row)
    assert np.shares_memory(op_out.mat.indices, ctx.bwd_col)
    assert np.shares_memory(op_out.mat.indptr, ctx.bwd_row)
    assert op_in.mat.data.dtype == np.float32
    assert np.shares_memory(op_in.mat.data, ctx.ones) and np.shares_memory(op_out.mat.data, ctx.ones)


@pytest.mark.parametrize("sort_by_degree", [False, True])
def test_one_gpma_build_tracks_two_csrs_and_two_degree_arrays(sort_by_degree):
    """(3E + 2(N+1) + 2N) int32 entries: two col arrays and the in-CSR's
    label array (the out-CSR's labels are its positions: none is stored),
    two row offsets, two degree arrays; a degree order adds its two N-length
    arrays."""
    n = 300
    src, dst = _edges(n, 2000, seed=3)
    keys = encode_edges(src, dst, n)
    pma = PackedMemoryArray(capacity=2 * len(keys))
    pma.insert_batch(keys)
    with use_device(Device(name="index-width-bytes")) as device:
        snap = build_snapshot_arrays(pma.export_items(), n, sort_by_degree, device.alloc)
        tracked = sum(b for tag, b in device.tracker.bytes_by_tag().items() if tag.startswith("gpma."))
    e = len(keys)
    entries = 3 * e + 2 * (n + 1) + 2 * n + (2 * n if sort_by_degree else 0)
    assert tracked == entries * 4
    assert snap.bwd.eids is None
    assert (snap.fwd.node_ids is None) == (not sort_by_degree)
