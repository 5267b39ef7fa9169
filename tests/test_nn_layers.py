"""Spatial layers: GCNConv, GATConv, SAGEConv against dense references."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import TemporalExecutor
from repro.graph import StaticGraph
from repro.nn import GATConv, GCNConv, SAGEConv
from repro.nn.gcn import gcn_norm
from repro.tensor import Tensor, functional as F, init


@pytest.fixture
def setup(rng):
    n = 18
    g = nx.gnp_random_graph(n, 0.25, seed=13, directed=True)
    sg = StaticGraph.from_networkx(g)
    ex = TemporalExecutor(sg)
    ex.begin_timestamp(0)
    A = nx.to_numpy_array(g).T.astype(np.float32)
    x = rng.standard_normal((n, 5)).astype(np.float32)
    return n, g, sg, ex, A, x


def test_gcn_matches_dense_reference(setup):
    n, g, sg, ex, A, x = setup
    conv = GCNConv(5, 3, add_self_loops=True)
    out = conv(ex, Tensor(x))
    deg = A.sum(1) + 1
    norm = 1 / np.sqrt(deg)
    A_hat = (A + np.eye(n)) * norm[:, None] * norm[None, :]
    # note: symmetric norm uses dest-in-degree for both endpoints in our
    # in-degree formulation: Â[v,u] = n_v·n_u
    ref = A_hat @ (x @ conv.weight.data) + conv.bias.data
    assert np.allclose(out.data, ref, atol=1e-4)


def test_gcn_without_self_loops(setup):
    n, g, sg, ex, A, x = setup
    conv = GCNConv(5, 3, add_self_loops=False)
    out = conv(ex, Tensor(x))
    deg = np.maximum(A.sum(1), 1)
    norm = 1 / np.sqrt(deg)
    ref = (A * norm[:, None] * norm[None, :]) @ (x @ conv.weight.data) + conv.bias.data
    assert np.allclose(out.data, ref, atol=1e-4)


def test_gcn_norm_cached_on_context(setup):
    n, g, sg, ex, A, x = setup
    ctx = ex.current_context()
    n1 = gcn_norm(ctx, True)
    n2 = gcn_norm(ctx, True)
    assert n1 is n2
    n3 = gcn_norm(ctx, False)
    assert n3 is not n1


def test_gcn_gradients_flow_to_params(setup):
    n, g, sg, ex, A, x = setup
    conv = GCNConv(5, 3)
    out = conv(ex, Tensor(x, requires_grad=True))
    F.sum(out).backward()
    assert conv.weight.grad is not None and conv.bias.grad is not None
    assert np.abs(conv.weight.grad).sum() > 0


def test_gcn_state_stack_spec_minimal(setup):
    """Backward reads only ``norm``, and the layer binds it as a function of
    the context, so the State Stack keeps that function: no bytes."""
    n, g, sg, ex, A, x = setup
    conv = GCNConv(5, 4)
    assert set(conv.program.saved_spec) == {"n_norm"}
    conv(ex, Tensor(x, requires_grad=True))
    assert len(ex.state_stack) == 1 and ex.state_stack.current_bytes() == 0


def test_gcn_generated_source_accessible():
    conv = GCNConv(4, 4)
    assert "spmm_scaled(ctx, n_norm" in conv.program.forward_source
    assert "spmm_scaled_T(ctx, n_norm" in conv.program.backward_source


def test_sage_matches_dense(setup):
    n, g, sg, ex, A, x = setup
    conv = SAGEConv(5, 3)
    out = conv(ex, Tensor(x))
    deg = np.maximum(A.sum(1), 1)[:, None]
    ref = x @ conv.weight_self.data + ((A @ x) / deg) @ conv.weight_nb.data + conv.bias.data
    assert np.allclose(out.data, ref, atol=1e-4)


def test_gat_rows_attend(setup):
    n, g, sg, ex, A, x = setup
    conv = GATConv(5, 4)
    out = conv(ex, Tensor(x))
    assert out.shape == (n, 4)
    # attention output is a convex combination of transformed neighbors:
    ft = x @ conv.weight.data
    for v in range(n):
        preds = list(g.predecessors(v))
        if preds:
            lo = ft[preds].min(0) + conv.bias.data
            hi = ft[preds].max(0) + conv.bias.data
            assert np.all(out.data[v] >= lo - 1e-4)
            assert np.all(out.data[v] <= hi + 1e-4)


def test_gat_gradients_flow(setup):
    n, g, sg, ex, A, x = setup
    conv = GATConv(5, 4)
    out = conv(ex, Tensor(x, requires_grad=True))
    F.sum(out).backward()
    for p in (conv.weight, conv.attn_l, conv.attn_r):
        assert p.grad is not None
        assert np.isfinite(p.grad).all()


def test_layers_deterministic_given_seed(setup):
    n, g, sg, ex, A, x = setup
    init.set_seed(3)
    c1 = GCNConv(5, 3)
    init.set_seed(3)
    c2 = GCNConv(5, 3)
    o1 = c1(ex, Tensor(x))
    o2 = c2(ex, Tensor(x))
    assert np.array_equal(o1.data, o2.data)


def test_isolated_vertices_get_zero_aggregate(rng):
    """A vertex with no in-edges aggregates to its self-loop only."""
    sg = StaticGraph(np.array([0]), np.array([1]), 3)  # node 2 isolated
    ex = TemporalExecutor(sg)
    ex.begin_timestamp(0)
    conv = GCNConv(2, 2, add_self_loops=False, bias=False)
    x = rng.standard_normal((3, 2)).astype(np.float32)
    out = conv(ex, Tensor(x))
    assert np.allclose(out.data[2], 0.0)
    assert np.allclose(out.data[0], 0.0)  # 0 has no in-edges either


def test_parameter_counts():
    assert GCNConv(4, 8).parameter_count() == 4 * 8 + 8
    assert SAGEConv(4, 8).parameter_count() == 2 * 4 * 8 + 8
    assert GATConv(4, 8).parameter_count() == 4 * 8 + 8 + 8 + 8
