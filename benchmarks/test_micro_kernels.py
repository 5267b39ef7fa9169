"""Kernel micro-benchmarks: vertex-centric SpMM vs edge-parallel
gather/scatter, the degree-sort ablation, the aggregation launch path, and
the folded GCN launch against the unfused composition."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from benchmarks._interleave import interleaved_ratio
from repro.compiler import compile_vertex_program
from repro.compiler.runtime import GraphContext, ew_add, ew_mul, spmm, spmm_T
from repro.dataset import load_sx_mathoverflow
from repro.graph import StaticGraph
from repro.nn import GCNConv
from repro.nn.gcn import gcn_norm, gcn_norm_self_loops
from repro.tensor import Tensor, functional as F

N = 3000
P = 0.01
FDIM = 32


@pytest.fixture(scope="module")
def graph():
    g = nx.gnp_random_graph(N, P, seed=1, directed=True)
    edges = np.array(list(g.edges()), dtype=np.int64).T
    return g, edges


@pytest.fixture
def ctx(graph):
    g, edges = graph
    return GraphContext(StaticGraph(edges[0], edges[1], N))


def _gcn_fn(v):
    return v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm


def _inputs(ctx, rng):
    h = rng.standard_normal((N, FDIM)).astype(np.float32)
    norm = (1.0 / np.sqrt(np.maximum(ctx.in_deg, 1))).astype(np.float32)
    return h, norm


def test_vertex_centric_forward(benchmark, ctx, rng):
    prog = compile_vertex_program(_gcn_fn, {"h": "v", "norm": "s"}, {"h"}, name="mb_vc")
    h, norm = _inputs(ctx, rng)
    benchmark(lambda: prog.forward(ctx, {"h": h, "norm": norm}))


def test_edge_parallel_forward(benchmark, graph, rng):
    """The PyG mechanism on the same graph/features: gather E×F, scatter."""
    g, edges = graph
    h = Tensor(rng.standard_normal((N, FDIM)).astype(np.float32))
    w = rng.standard_normal(edges.shape[1]).astype(np.float32)

    def op():
        msgs = F.mul(F.index_select(h, edges[0]), w[:, None])
        return F.scatter_add(msgs, edges[1], N)

    benchmark(op)


def test_vertex_centric_backward(benchmark, ctx, rng):
    prog = compile_vertex_program(_gcn_fn, {"h": "v", "norm": "s"}, {"h"}, name="mb_vcb")
    h, norm = _inputs(ctx, rng)
    out, saved = prog.forward(ctx, {"h": h, "norm": norm})
    gout = rng.standard_normal(out.shape).astype(np.float32)
    benchmark(lambda: prog.backward(ctx, gout, saved))


def test_ablation_degree_sort_on(benchmark, graph, rng):
    g, edges = graph
    ctx = GraphContext(StaticGraph(edges[0], edges[1], N, sort_by_degree=True))
    prog = compile_vertex_program(_gcn_fn, {"h": "v", "norm": "s"}, {"h"}, name="mb_ds")
    h, norm = _inputs(ctx, rng)
    benchmark(lambda: prog.forward(ctx, {"h": h, "norm": norm}))


@pytest.mark.parametrize("direction", ["in", "out"])
def test_warm_spmm_launch_is_product_bound(graph, rng, monkeypatch, direction):
    """Gate: a warm unweighted degree-ordered ``spmm`` is the product plus the
    gather.

    Timed on a ``sort_by_degree=True`` graph, the order with a permutation
    to keep off the launch path (the default operator is the CSR as built).
    The bare side multiplies a row-permuted matrix built here, once, with
    plain SciPy and gathers the result back through the inverse permutation
    (also built once); the launch may cost at most
    1.25x that, because everything else it used to do per call (wrap the
    arrays in a matrix, permute its rows) is structure of the context.
    Both sides run in this process on the same arrays, in interleaved
    rounds (``benchmarks/_interleave.py``), and the gate reads the median
    per-round ratio, so runner speed and its drift cancel out.  A warm
    launch also constructs no matrix at all.
    """
    g, edges = graph
    ctx = GraphContext(StaticGraph(edges[0], edges[1], N, sort_by_degree=True))
    row, col, order = (
        (ctx.fwd_row, ctx.fwd_col, ctx.fwd_node_ids)
        if direction == "in"
        else (ctx.bwd_row, ctx.bwd_col, ctx.bwd_node_ids)
    )
    ones = np.ones(ctx.num_edges, dtype=np.float32)
    prepermuted = sp.csr_matrix((ones, col, row), shape=(N, N))[order]
    inverse = np.argsort(order)
    x = rng.standard_normal((N, FDIM)).astype(np.float32)

    def bare():
        return (prepermuted @ x).take(inverse, axis=0)

    assert np.array_equal(spmm(ctx, None, x, direction), bare())  # also warms the operator
    ratio = interleaved_ratio(lambda: spmm(ctx, None, x, direction), bare, rounds=15, calls=25)
    print(f"\nwarm spmm({direction!r}): {ratio:.3f}x the bare product + gather")
    assert ratio <= 1.25, (
        f"warm spmm({direction!r}) is {ratio:.2f}x the bare product + gather"
    )

    built = []
    real = sp.csr_matrix
    monkeypatch.setattr(sp, "csr_matrix", lambda *a, **k: built.append(1) or real(*a, **k))
    for _ in range(3):
        spmm(ctx, None, x, direction)
    assert not built


def test_ablation_degree_sort_off(benchmark, graph, rng):
    """Figure 3 ablation: identity processing order.  (On a GPU the sorted
    order overlaps high-degree rows with many low-degree ones; on the
    simulated device the mechanism is preserved but the win is not
    expected to be large.)"""
    g, edges = graph
    ctx = GraphContext(StaticGraph(edges[0], edges[1], N, sort_by_degree=False))
    prog = compile_vertex_program(_gcn_fn, {"h": "v", "norm": "s"}, {"h"}, name="mb_dsoff")
    h, norm = _inputs(ctx, rng)
    benchmark(lambda: prog.forward(ctx, {"h": h, "norm": norm}))


def _unfused_gcn(ctx, norm, h, g):
    """The GCN self-loop program as it ran before the scale fold: three
    broadcast multiplies and an add around an unweighted ``spmm``, forward,
    then backward."""
    t0 = ew_mul(h, norm)
    out = ew_add(ew_mul(spmm(ctx, None, t0), norm), ew_mul(t0, norm))
    g0 = ew_mul(g, norm)
    return out, ew_mul(ew_add(g0, spmm_T(ctx, None, g0)), norm)


def test_warm_folded_gcn_launch_beats_the_unfused_composition(rng):
    """Gate: a warm GCN launch with self-loops, forward and backward, costs at
    most 0.85x the unfused composition of the same primitives.

    On the newest sx-mathoverflow snapshot at scale 1.0 (N 24 000, F 16), the
    shape ``dtdg-update-bound`` and ``serve-churn`` run.  The folded program
    is one weighted ``spmm``, one broadcast multiply and one add each way,
    through the plan's kernels and the device launcher; the unfused side
    calls its primitives directly, so launch overhead counts only against
    the fold.  Both sides are warm (the folded weights and the ``ones``
    operator built) and timed in interleaved rounds.
    """
    ds = load_sx_mathoverflow(scale=1.0, feature_size=16, max_snapshots=12)
    src, dst = ds.dtdg.snapshot_edges(ds.num_timestamps - 1)
    ctx = GraphContext(StaticGraph(src, dst, ds.num_nodes))
    plan = GCNConv(16, 16).program
    norm = gcn_norm(ctx, True)
    h = rng.standard_normal((ctx.num_nodes, 16)).astype(np.float32)
    g = rng.standard_normal((ctx.num_nodes, 16)).astype(np.float32)

    def folded():
        out, saved = plan.forward(ctx, {"h": h, "norm": gcn_norm_self_loops})
        return out, plan.backward(ctx, g, saved)["h"]

    got, want = folded(), _unfused_gcn(ctx, norm, h, g)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max()
    ratio = interleaved_ratio(folded, lambda: _unfused_gcn(ctx, norm, h, g), rounds=31, calls=10)
    print(f"\nwarm folded GCN launch: {ratio:.3f}x the unfused composition")
    assert ratio <= 0.85, f"warm folded GCN launch is {ratio:.2f}x the unfused composition"
