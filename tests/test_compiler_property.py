"""Property-based compiler testing: random vertex programs vs dense refs.

Generates random sum-of-products aggregation bodies (the space the
decomposition handles), compiles them, and checks the generated kernel
against an explicit dense-adjacency evaluation on random graphs.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.compiler import compile_vertex_program
from repro.compiler.ir import VNode
from repro.compiler.runtime import GraphContext
from repro.graph import StaticGraph

_term = st.tuples(
    st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 0.05),  # coefficient
    st.booleans(),  # include src feature h?
    st.booleans(),  # include src scalar s?
    st.booleans(),  # include dst scalar d?
)


def _build_fn(terms):
    def fn(v):
        def body(nb):
            expr = None
            for coef, use_h, use_s, use_d in terms:
                t = None
                if use_h:
                    t = nb.h
                if use_s:
                    t = nb.s if t is None else t * nb.s
                if use_d:
                    t = v.d if t is None else t * v.d
                t = VNode.const(coef) if t is None else t * coef
                expr = t if expr is None else expr + t
            return expr

        return v.agg_sum(body)

    return fn


def _dense_ref(A, in_deg, terms, h, s, d):
    n = A.shape[0]
    f = h.shape[1]
    out = np.zeros((n, f), dtype=np.float64)
    for coef, use_h, use_s, use_d in terms:
        # per-source payload
        payload = np.ones((n, f)) if not use_h else h.astype(np.float64).copy()
        if use_s:
            payload = payload * s[:, None]
        term = A.astype(np.float64) @ payload  # aggregate over in-neighbors
        if not use_h and not use_s:
            # pure constant body: sum over in-edges = in_degree
            term = np.repeat(in_deg[:, None], f, axis=1).astype(np.float64)
        if use_d:
            term = term * d[:, None]
        out += coef * term
    return out


@given(
    terms=st.lists(_term, min_size=1, max_size=3),
    seed=st.integers(0, 10**6),
    n=st.integers(3, 18),
    p=st.floats(0.1, 0.5),
)
@settings(max_examples=40, deadline=None)
def test_random_sum_of_products_matches_dense(terms, seed, n, p):
    # A body with no neighbor reference at all is (correctly) a compile
    # error tested elsewhere; this property needs at least one SRC factor.
    assume(any(use_h or use_s for _, use_h, use_s, _ in terms))
    g = nx.gnp_random_graph(n, p, seed=seed, directed=True)
    sg = StaticGraph.from_networkx(g)
    ctx = GraphContext(sg)
    A = nx.to_numpy_array(g).T.astype(np.float32)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, 2)).astype(np.float32)
    s = rng.standard_normal(n).astype(np.float32)
    d = rng.standard_normal(n).astype(np.float32)

    prog = compile_vertex_program(
        _build_fn(terms),
        feature_widths={"h": "v", "s": "s", "d": "s"},
        name="prop",
    )
    feats = {}
    node_names = {feat for kind, feat in prog.fwd_prog.inputs.values() if kind == "node"}
    if "h" in node_names:
        feats["h"] = h
    if "s" in node_names:
        feats["s"] = s
    if "d" in node_names:
        feats["d"] = d
    out, _ = prog.forward(ctx, feats)
    ref = _dense_ref(A, ctx.in_deg, terms, h, s, d)
    if out.ndim == 1:  # program had no vector factor anywhere
        ref = ref[:, 0]
    assert np.allclose(out, ref, atol=1e-3 * max(1.0, np.abs(ref).max())), (
        np.abs(out - ref).max()
    )


@given(seed=st.integers(0, 10**6), n=st.integers(3, 15), p=st.floats(0.1, 0.5))
@settings(max_examples=30, deadline=None)
def test_spmm_grad_adjoint_identity(seed, n, p):
    """⟨out, g⟩ differentiated: spmm_T must be the exact adjoint of spmm."""
    from repro.compiler.runtime import spmm, spmm_T

    g_nx = nx.gnp_random_graph(n, p, seed=seed, directed=True)
    ctx = GraphContext(StaticGraph.from_networkx(g_nx))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3)).astype(np.float32)
    gout = rng.standard_normal((n, 3)).astype(np.float32)
    w = rng.standard_normal(ctx.num_edges).astype(np.float32)
    lhs = float((spmm(ctx, w, x) * gout).sum())
    rhs = float((spmm_T(ctx, w, gout) * x).sum())
    assert abs(lhs - rhs) < 1e-2 * max(1.0, abs(lhs))


@given(seed=st.integers(0, 10**6), n=st.integers(3, 15))
@settings(max_examples=30, deadline=None)
def test_edge_softmax_rows_normalize(seed, n):
    from repro.compiler.runtime import edge_softmax, segment_sum

    g_nx = nx.gnp_random_graph(n, 0.4, seed=seed, directed=True)
    ctx = GraphContext(StaticGraph.from_networkx(g_nx))
    if ctx.num_edges == 0:
        return
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(ctx.num_edges) * 5).astype(np.float32)
    alpha = edge_softmax(ctx, z)
    sums = segment_sum(ctx, alpha)
    has_in = ctx.in_deg > 0
    assert np.allclose(sums[has_in], 1.0, atol=1e-4)
    assert np.all(alpha >= 0)
