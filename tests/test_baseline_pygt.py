"""The PyG-T baseline: edge-parallel mechanics and parity with STGraph."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.baselines.pygt import (
    DynamicGraphTemporalSignal,
    MessagePassing,
    PyGGCNConv,
    PyGTTGCN,
    StaticGraphTemporalSignal,
)
from repro.baselines.pygt.gcn_conv import gcn_norm_coo
from repro.core import TemporalExecutor
from repro.graph import DTDG, StaticGraph
from repro.nn import GCNConv, TGCN
from repro.tensor import Tensor, functional as F, init


@pytest.fixture
def graph(rng):
    g = nx.gnp_random_graph(16, 0.3, seed=31, directed=True)
    edges = np.array(list(g.edges()), dtype=np.int64).T
    return g, edges


def test_message_passing_matches_dense(graph, rng):
    g, edges = graph
    n = 16
    mp = MessagePassing()
    x = Tensor(rng.standard_normal((n, 3)).astype(np.float32))
    out = mp.propagate(edges, x)
    A = nx.to_numpy_array(g).T.astype(np.float32)
    assert np.allclose(out.data, A @ x.data, atol=1e-5)


def test_message_passing_with_weights(graph, rng):
    g, edges = graph
    n = 16
    mp = MessagePassing()
    x = Tensor(rng.standard_normal((n, 3)).astype(np.float32))
    w = rng.standard_normal(edges.shape[1]).astype(np.float32)
    out = mp.propagate(edges, x, edge_weight=w)
    ref = np.zeros((n, 3), dtype=np.float32)
    for (s, d), wi in zip(edges.T, w):
        ref[d] += x.data[s] * wi
    assert np.allclose(out.data, ref, atol=1e-4)


def test_message_passing_bad_edge_index(rng):
    mp = MessagePassing()
    with pytest.raises(ValueError):
        mp.propagate(np.zeros((3, 5), dtype=np.int64), Tensor(np.zeros((4, 2), dtype=np.float32)))


def test_message_passing_materializes_exf(graph, rng, fresh_device):
    """The defining cost: an E×F gather retained until backward."""
    g, edges = graph
    E = edges.shape[1]
    Fdim = 8
    x = Tensor(rng.standard_normal((16, Fdim)).astype(np.float32), requires_grad=True)
    before = fresh_device.tracker.current_bytes
    out = MessagePassing().propagate(edges, x, edge_weight=np.ones(E, dtype=np.float32))
    grown = fresh_device.tracker.current_bytes - before
    assert grown >= E * Fdim * 4  # the duplicated message tensor is resident
    F.sum(out).backward()


def test_gcn_norm_coo_self_loops():
    edges = np.array([[0, 1], [1, 2]])
    ei, norm = gcn_norm_coo(edges, 3, add_self_loops=True)
    assert ei.shape[1] == 2 + 3
    assert norm.shape == (5,)
    assert np.all(norm > 0)


def test_pyg_gcn_matches_stgraph_gcn(graph, rng):
    """Same math, different execution: outputs and grads must coincide."""
    g, edges = graph
    n = 16
    init.set_seed(11)
    stg = GCNConv(5, 3)
    init.set_seed(11)
    pyg = PyGGCNConv(5, 3)
    assert np.array_equal(stg.weight.data, pyg.weight.data)

    x_np = rng.standard_normal((n, 5)).astype(np.float32)
    sg = StaticGraph(edges[0], edges[1], n)
    ex = TemporalExecutor(sg)
    ex.begin_timestamp(0)

    xs = Tensor(x_np, requires_grad=True)
    xp = Tensor(x_np.copy(), requires_grad=True)
    out_s = stg(ex, xs)
    out_p = pyg(xp, edges)
    assert np.allclose(out_s.data, out_p.data, atol=1e-4)

    gout = rng.standard_normal((n, 3)).astype(np.float32)
    F.sum(F.mul(out_s, gout)).backward()
    F.sum(F.mul(out_p, gout)).backward()
    assert np.allclose(xs.grad, xp.grad, atol=1e-4)
    assert np.allclose(stg.weight.grad, pyg.weight.grad, atol=1e-4)


def test_pyg_gcn_cached_mode(graph, rng):
    g, edges = graph
    conv = PyGGCNConv(4, 2, cached=True)
    x = Tensor(rng.standard_normal((16, 4)).astype(np.float32))
    o1 = conv(x, edges)
    o2 = conv(x, edges)
    assert np.allclose(o1.data, o2.data)
    assert conv._cache is not None


def test_pygt_tgcn_matches_stgraph_tgcn(graph, rng):
    g, edges = graph
    n = 16
    init.set_seed(5)
    m_stg = TGCN(4, 6)
    init.set_seed(5)
    m_pyg = PyGTTGCN(4, 6)
    sg = StaticGraph(edges[0], edges[1], n)
    ex = TemporalExecutor(sg)
    xs = [rng.standard_normal((n, 4)).astype(np.float32) for _ in range(4)]
    ys = [rng.standard_normal((n, 6)).astype(np.float32) for _ in range(4)]

    def run_stg():
        h, total = None, None
        for t, (x, y) in enumerate(zip(xs, ys)):
            ex.begin_timestamp(t)
            h = m_stg(ex, Tensor(x), h)
            l = F.mse_loss(h, y)
            total = l if total is None else F.add(total, l)
        total.backward()
        return total.item()

    def run_pyg():
        h, total = None, None
        for x, y in zip(xs, ys):
            h = m_pyg(Tensor(x), edges, h)
            l = F.mse_loss(h, y)
            total = l if total is None else F.add(total, l)
        total.backward()
        return total.item()

    l1, l2 = run_stg(), run_pyg()
    assert l1 == pytest.approx(l2, abs=1e-5)
    g1 = m_stg.conv_h.weight.grad
    g2 = m_pyg.conv_h.weight.grad
    assert np.allclose(g1, g2, atol=1e-4)


def test_pygt_signal_edge_indices_are_device_resident(fresh_device):
    """PyG-T keeps every snapshot's ``edge_index`` on the device for the
    whole run: building either signal raises the tracked bytes by exactly
    the arrays it holds, so Figs. 6 and 8 count the baseline's storage with
    the allocator that counts STGraph's."""
    from repro.dataset import DYNAMIC_DATASETS, STATIC_DATASETS

    tracker = fresh_device.tracker
    static = STATIC_DATASETS["HC"](lags=4, num_timestamps=6)
    before = tracker.current_bytes
    static_signal = static.to_pygt_signal()
    static_bytes = static_signal.edge_index.nbytes
    assert static_bytes == 2 * 8 * static.num_edges
    assert tracker.current_bytes - before == static_bytes

    dynamic = DYNAMIC_DATASETS["sx-mathoverflow"](scale=0.005, feature_size=4, max_snapshots=5)
    before = tracker.current_bytes
    dynamic_signal = dynamic.to_pygt_signal()
    assert len(dynamic_signal.edge_indices) == dynamic.num_timestamps
    dynamic_bytes = sum(ei.nbytes for ei in dynamic_signal.edge_indices)
    assert tracker.current_bytes - before == dynamic_bytes > 0
    assert tracker.bytes_by_tag()["pygt.snapshot"] == static_bytes + dynamic_bytes


def test_static_signal_iteration(rng):
    ei = np.array([[0, 1], [1, 0]])
    feats = [rng.standard_normal((2, 3)).astype(np.float32) for _ in range(4)]
    targs = [rng.standard_normal((2, 1)).astype(np.float32) for _ in range(4)]
    sig = StaticGraphTemporalSignal(ei, feats, targs)
    assert len(sig) == 4
    snaps = list(sig)
    assert all(np.array_equal(s.edge_index, ei) for s in snaps)
    assert np.array_equal(snaps[2].x, feats[2])


def test_static_signal_length_mismatch():
    with pytest.raises(ValueError):
        StaticGraphTemporalSignal(np.zeros((2, 1)), [np.zeros((2, 2))], [])


def test_dynamic_signal_iteration(rng):
    eis = [np.array([[0], [1]]), np.array([[1], [0]])]
    feats = [rng.standard_normal((2, 2)).astype(np.float32) for _ in range(2)]
    sig = DynamicGraphTemporalSignal(eis, feats, [None, None])
    assert len(sig) == 2
    assert np.array_equal(sig[1].edge_index, eis[1])
