"""Differential test of the cached aggregation operator.

``spmm`` fetches a per-context, per-direction CSR that was row-permuted
into ``node_ids`` order once.  The formulation it replaced did that work on
every launch: wrap the context's arrays in a matrix, ``mat[order] @ x``,
scatter.  That formulation is written out below with plain SciPy and must
agree with ``spmm`` bit for bit on any digraph, direction, weighting,
degree order (the graph's ``sort_by_degree``), payload rank and input dtype.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.compiler import runtime as rt
from repro.compiler.runtime import GraphContext
from repro.graph import StaticGraph


@st.composite
def _digraphs(draw):
    """Small digraphs: isolated vertices, empty rows and self-loops all
    occur, and an empty draw gives ``E == 0``."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40, unique=True))
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    return n, src, dst


def _per_launch_spmm(ctx: GraphContext, w, x, direction: str) -> np.ndarray:
    """What every launch did before the operator was cached."""
    n = ctx.num_nodes
    if direction == "in":
        row, col, order, data = ctx.fwd_row, ctx.fwd_col, ctx.fwd_node_ids, w
    else:
        row, col, order = ctx.bwd_row, ctx.bwd_col, ctx.bwd_node_ids
        data = None if w is None else w[ctx.bwd_to_fwd]
    if data is None:
        data = np.ones(ctx.num_edges, dtype=np.float32)
    mat = sp.csr_matrix((data.astype(np.float32, copy=False), col, row), shape=(n, n), copy=False)
    x32 = x.astype(np.float32, copy=False)
    if not ctx.sort_by_degree:
        return mat @ x32
    out_perm = mat[order] @ x32
    out = np.empty_like(out_perm)
    out[order] = out_perm
    return out


@settings(max_examples=120, deadline=None)
@given(
    graph=_digraphs(),
    sort_by_degree=st.booleans(),
    weighted=st.booleans(),
    width=st.sampled_from([None, 1, 3]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_spmm_equals_per_launch_formulation_bitwise(
    graph, sort_by_degree, weighted, width, dtype, seed
):
    n, src, dst = graph
    rng = np.random.default_rng(seed)
    ctx = GraphContext(StaticGraph(src, dst, n, sort_by_degree))
    x = rng.standard_normal(n if width is None else (n, width)).astype(dtype)
    w = rng.standard_normal(ctx.num_edges).astype(dtype) if weighted else None
    for direction in ("in", "out"):
        want = _per_launch_spmm(ctx, w, x, direction)
        for _ in range(2):  # cold (builds the operator) and warm
            got = rt.spmm(ctx, w, x, direction)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        # the adjoint is the same product over the other orientation
        other = "out" if direction == "in" else "in"
        assert np.array_equal(rt.spmm_T(ctx, w, x, direction), _per_launch_spmm(ctx, w, x, other))


@settings(max_examples=60, deadline=None)
@given(graph=_digraphs(), sort_by_degree=st.booleans(), weighted=st.booleans(), seed=st.integers(0, 2**16))
def test_spmm_T_stays_the_adjoint(graph, sort_by_degree, weighted, seed):
    """<spmm(x), y> == <x, spmm_T(y)> on integer-valued payloads, where
    float32 sums are exact and the identity can be asserted with ``==``."""
    n, src, dst = graph
    rng = np.random.default_rng(seed)
    ctx = GraphContext(StaticGraph(src, dst, n, sort_by_degree))
    x = rng.integers(-4, 5, (n, 2)).astype(np.float32)
    y = rng.integers(-4, 5, (n, 2)).astype(np.float32)
    w = rng.integers(-3, 4, ctx.num_edges).astype(np.float32) if weighted else None
    for direction in ("in", "out"):
        lhs = float((rt.spmm(ctx, w, x, direction) * y).sum())
        rhs = float((rt.spmm_T(ctx, w, y, direction) * x).sum())
        assert lhs == rhs


def test_operator_indices_are_int32_and_shared_by_weighted_launches():
    """int32 structure is what SciPy would convert to on every construction;
    holding it means a weighted launch's matrix aliases the cached arrays."""
    ctx = GraphContext(StaticGraph(np.array([0, 1, 1, 2]), np.array([1, 0, 2, 2]), 4))
    w = np.arange(4, dtype=np.float32)
    for direction in ("in", "out"):
        op = ctx.operator(direction)
        assert op.mat.indices.dtype == np.int32 and op.mat.indptr.dtype == np.int32
        weighted = op.matrix(w)
        assert np.shares_memory(weighted.indices, op.mat.indices)
        assert np.shares_memory(weighted.indptr, op.mat.indptr)
