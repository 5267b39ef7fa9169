"""Direct tests of the kernel-runtime primitives and GraphContext."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.compiler import runtime as rt
from repro.compiler.runtime import GraphContext
from repro.graph import StaticGraph


@pytest.fixture
def ctx(rng):
    g = nx.gnp_random_graph(20, 0.25, seed=17, directed=True)
    return GraphContext(StaticGraph.from_networkx(g)), g


def test_context_structural_arrays(ctx):
    c, g = ctx
    assert c.num_nodes == 20
    assert c.num_edges == g.number_of_edges()
    assert len(c.dst_per_edge) == c.num_edges
    # every canonical edge position (src=fwd_col[e], dst=dst_per_edge[e])
    # must be a real edge
    for e in range(c.num_edges):
        assert g.has_edge(int(c.fwd_col[e]), int(c.dst_per_edge[e]))


def test_label_permutations_consistent(ctx):
    c, g = ctx
    # label_to_fwd inverts fwd_eids
    assert np.array_equal(c.label_to_fwd[c.fwd_eids], np.arange(c.num_edges))
    # bwd position p and fwd position bwd_to_fwd[p] describe the same edge
    bwd_src = np.repeat(np.arange(c.num_nodes), np.diff(c.bwd_row))
    for p in range(c.num_edges):
        f = c.bwd_to_fwd[p]
        assert bwd_src[p] == c.fwd_col[f]
        assert c.bwd_col[p] == c.dst_per_edge[f]


def test_bind_edge_feature_roundtrip(ctx, rng):
    c, g = ctx
    label_vals = rng.standard_normal(c.num_edges).astype(np.float32)
    canonical = c.bind_edge_feature(label_vals)
    back = c.edge_grad_to_labels(canonical)
    assert np.allclose(back, label_vals)


def test_operator_built_once_per_context_and_direction(ctx, rng, monkeypatch):
    """The degree-ordered CSR is structure: the second fetch returns the same
    object, a warm unweighted launch constructs no matrix and a warm weighted
    launch exactly one (its data over the cached structure)."""
    c, g = ctx
    x = rng.standard_normal((20, 5)).astype(np.float32)
    w = rng.standard_normal(c.num_edges).astype(np.float32)
    for direction in ("in", "out"):
        assert c.operator(direction) is c.operator(direction)
        rt.spmm(c, None, x, direction)
        rt.spmm(c, w, x, direction)  # first weighted launch also builds ``pos``
    assert c.operator("in") is not c.operator("out")

    built = []
    real = rt.sp.csr_matrix

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(rt.sp, "csr_matrix", counting)
    for direction in ("in", "out"):
        for _ in range(3):
            rt.spmm(c, None, x, direction)
        assert not built
        for _ in range(3):
            rt.spmm(c, w, x, direction)
        assert len(built) == 3
        built.clear()


def test_spmm_degree_order_invariant(ctx, rng):
    """Degree-ordered processing is a scheduling mechanism: a row permutation
    cannot change a row's sum, so the result is the same bits."""
    c, g = ctx
    x = rng.standard_normal((20, 5)).astype(np.float32)
    for w in (None, rng.standard_normal(c.num_edges).astype(np.float32)):
        for direction in ("in", "out"):
            c.use_degree_order = True
            a = rt.spmm(c, w, x, direction)
            c.use_degree_order = False
            b = rt.spmm(c, w, x, direction)
            assert np.array_equal(a, b)


def test_spmm_T_is_adjoint_both_directions(ctx, rng):
    c, g = ctx
    x = rng.standard_normal((20, 3)).astype(np.float32)
    y = rng.standard_normal((20, 3)).astype(np.float32)
    w = rng.standard_normal(c.num_edges).astype(np.float32)
    for direction in ("in", "out"):
        lhs = float((rt.spmm(c, w, x, direction=direction) * y).sum())
        rhs = float((rt.spmm_T(c, w, y, direction=direction) * x).sum())
        assert lhs == pytest.approx(rhs, rel=1e-3, abs=1e-3)


def test_segment_sum_empty_rows(rng):
    """Vertices with no in-edges must sum to exactly zero (the reduceat
    pitfall the cumsum formulation avoids)."""
    sg = StaticGraph(np.array([0, 0]), np.array([1, 1]), 4)  # only node 1 has in-edges
    c = GraphContext(sg)
    w = np.array([2.0, 3.0], dtype=np.float32)
    out = rt.segment_sum(c, w)
    assert out.tolist() == [0.0, 5.0, 0.0, 0.0]


def test_scatter_src(ctx, rng):
    c, g = ctx
    w = rng.standard_normal(c.num_edges).astype(np.float32)
    out = rt.scatter_src(c, w)
    ref = np.zeros(20)
    for e in range(c.num_edges):
        ref[c.fwd_col[e]] += w[e]
    assert np.allclose(out, ref, atol=1e-4)


def test_gather_src_dst(ctx, rng):
    c, g = ctx
    x = rng.standard_normal(20).astype(np.float32)
    assert np.allclose(rt.gather_src(c, x), x[c.fwd_col])
    assert np.allclose(rt.gather_dst(c, x), x[c.dst_per_edge])


def test_edge_softmax_isolated_vertices():
    sg = StaticGraph(np.array([0]), np.array([1]), 3)
    c = GraphContext(sg)
    alpha = rt.edge_softmax(c, np.array([3.7], dtype=np.float32))
    assert alpha.tolist() == [1.0]  # single in-edge normalizes to 1


def test_edge_softmax_extreme_scores_stable(ctx, rng):
    c, g = ctx
    z = (rng.standard_normal(c.num_edges) * 200).astype(np.float32)
    alpha = rt.edge_softmax(c, z)
    assert np.all(np.isfinite(alpha))
    sums = rt.segment_sum(c, alpha)
    assert np.allclose(sums[c.in_deg > 0], 1.0, atol=1e-4)


def test_edge_dot_directions(ctx, rng):
    c, g = ctx
    x = rng.standard_normal((20, 3)).astype(np.float32)
    gout = rng.standard_normal((20, 3)).astype(np.float32)
    din = rt.edge_dot(c, x, gout, direction="in")
    dout = rt.edge_dot(c, x, gout, direction="out")
    e = 0
    s, d = c.fwd_col[e], c.dst_per_edge[e]
    assert din[e] == pytest.approx(float(x[s] @ gout[d]), rel=1e-4)
    assert dout[e] == pytest.approx(float(x[d] @ gout[s]), rel=1e-4)


def test_agg_max_isolated_vertices_zero():
    sg = StaticGraph(np.array([0]), np.array([1]), 3)
    c = GraphContext(sg)
    x = np.array([[-5.0], [1.0], [2.0]], dtype=np.float32)
    out = rt.agg_max(c, x)
    assert out[0, 0] == 0.0 and out[2, 0] == 0.0  # isolated → 0, not -inf
    assert out[1, 0] == -5.0


def test_degree_helpers(ctx):
    c, g = ctx
    assert np.array_equal(rt.in_deg(c), c.in_deg.astype(np.float32))
    assert np.all(rt.in_deg_clamped(c) >= 1)
    assert np.all(rt.out_deg_clamped(c) >= 1)
    assert np.array_equal(rt.out_deg(c), c.out_deg.astype(np.float32))


def test_colsum_widths():
    assert rt.colsum(np.ones((3, 4))).tolist() == [4.0, 4.0, 4.0]
    assert rt.colsum(np.ones(3)).tolist() == [1.0, 1.0, 1.0]


def test_masks():
    x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
    assert rt.relu_mask(x).tolist() == [0.0, 0.0, 1.0]
    assert rt.leaky_mask(x, slope=0.5).tolist() == [0.5, 0.5, 1.0]
