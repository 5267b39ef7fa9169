"""Multi-head GAT and the Embedding module."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import TemporalExecutor
from repro.graph import StaticGraph
from repro.nn import GATConv
from repro.tensor import Tensor, functional as F, init, nn, optim


@pytest.fixture
def setup(rng):
    g = nx.gnp_random_graph(14, 0.3, seed=8, directed=True)
    sg = StaticGraph.from_networkx(g)
    ex = TemporalExecutor(sg)
    ex.begin_timestamp(0)
    x = rng.standard_normal((14, 5)).astype(np.float32)
    return sg, ex, x


def test_multihead_concat_shape(setup):
    sg, ex, x = setup
    conv = GATConv(5, 4, heads=3, concat=True)
    out = conv(ex, Tensor(x))
    assert out.shape == (14, 12)


def test_multihead_average_shape(setup):
    sg, ex, x = setup
    conv = GATConv(5, 4, heads=3, concat=False)
    out = conv(ex, Tensor(x))
    assert out.shape == (14, 4)


def test_single_head_aliases(setup):
    conv = GATConv(5, 4, heads=2)
    assert conv.weight is conv.weight_0
    assert conv.attn_l is conv.attn_l_0
    assert conv.attn_r is conv.attn_r_0


def test_heads_are_independent(setup):
    """Zeroing one head's projection must not affect the others' columns."""
    sg, ex, x = setup
    conv = GATConv(5, 4, heads=2, concat=True, bias=False)
    base = conv(ex, Tensor(x)).data.copy()
    conv.weight_1.data[:] = 0.0
    out = conv(ex, Tensor(x)).data
    assert np.allclose(out[:, :4], base[:, :4])
    assert np.allclose(out[:, 4:], 0.0)


def test_multihead_gradients_flow(setup):
    sg, ex, x = setup
    conv = GATConv(5, 4, heads=2)
    out = conv(ex, Tensor(x, requires_grad=True))
    F.sum(out).backward()
    ex.check_drained()
    for h in range(2):
        assert getattr(conv, f"weight_{h}").grad is not None
        assert getattr(conv, f"attn_l_{h}").grad is not None


def test_invalid_heads():
    with pytest.raises(ValueError):
        GATConv(5, 4, heads=0)


def test_multihead_kernel_shared(compile_cost):
    """All heads (and all GAT layers) reuse the same compiled kernels: the
    first layer pays for the plan and its kernels, later ones for nothing."""
    misses, compiles = compile_cost(lambda: GATConv(5, 4, heads=1))
    assert misses > 0 and compiles > 0
    assert compile_cost(lambda: GATConv(5, 4, heads=4)) == (0, 0)
    assert compile_cost(lambda: GATConv(7, 3, heads=2)) == (0, 0)


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------
def test_embedding_lookup(rng):
    emb = nn.Embedding(10, 4)
    idx = np.array([1, 1, 7])
    out = emb(idx)
    assert out.shape == (3, 4)
    assert np.allclose(out.data, emb.weight.data[idx])


def test_embedding_all():
    emb = nn.Embedding(6, 3)
    assert np.allclose(emb.all().data, emb.weight.data)


def test_embedding_out_of_range():
    emb = nn.Embedding(5, 2)
    with pytest.raises(IndexError):
        emb(np.array([5]))
    with pytest.raises(IndexError):
        emb(np.array([-1]))


def test_embedding_gradient_accumulates_duplicates():
    emb = nn.Embedding(5, 2)
    out = emb(np.array([2, 2, 0]))
    F.sum(out).backward()
    assert np.allclose(emb.weight.grad[2], 2.0)
    assert np.allclose(emb.weight.grad[0], 1.0)
    assert np.allclose(emb.weight.grad[1], 0.0)


def test_embedding_trains_link_predictor(setup):
    """Featureless link prediction: embeddings + GNN learn real edges."""
    sg, ex, x = setup
    init.set_seed(0)
    emb = nn.Embedding(14, 8)
    from repro.nn import GCNConv

    conv = GCNConv(8, 8)
    params = list(emb.parameters()) + list(conv.parameters())
    opt = optim.Adam(params, lr=5e-2)
    bwd = sg.backward_csr()
    pos = np.stack([
        np.repeat(np.arange(14), np.diff(bwd.row_offset)),
        bwd.col_indices,
    ])
    rng = np.random.default_rng(0)
    neg = rng.integers(0, 14, pos.shape)
    pairs = np.concatenate([pos, neg], axis=1)
    labels = np.concatenate([np.ones(pos.shape[1]), np.zeros(neg.shape[1])]).astype(np.float32)

    first = last = None
    for i in range(30):
        opt.zero_grad()
        h = conv(ex, emb.all())
        logits = F.sum(F.mul(F.index_select(h, pairs[0]), F.index_select(h, pairs[1])), axis=1)
        loss = F.bce_with_logits_loss(logits, labels)
        loss.backward()
        ex.check_drained()
        opt.step()
        if i == 0:
            first = loss.item()
        last = loss.item()
    assert last < first * 0.9
