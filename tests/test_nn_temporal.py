"""Temporal models: TGCN, GConvGRU, GConvLSTM, A3TGCN, EvolveGCN-O."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import TemporalExecutor
from repro.graph import StaticGraph
from repro.nn import A3TGCN, EvolveGCNO, GConvGRU, GConvLSTM, TGCN
from repro.tensor import Tensor, functional as F, optim


@pytest.fixture
def setup(rng):
    n = 15
    g = nx.gnp_random_graph(n, 0.25, seed=21, directed=True)
    sg = StaticGraph.from_networkx(g)
    ex = TemporalExecutor(sg)
    xs = [Tensor(rng.standard_normal((n, 4)).astype(np.float32)) for _ in range(5)]
    ys = [rng.standard_normal((n, 6)).astype(np.float32) for _ in range(5)]
    return n, sg, ex, xs, ys


def _train_sequence(model_step, params, ex, xs, ys, epochs=4):
    opt = optim.Adam(params, lr=1e-2)
    losses = []
    for _ in range(epochs):
        opt.zero_grad()
        state, total = None, None
        for t, (x, y) in enumerate(zip(xs, ys)):
            ex.begin_timestamp(t)
            out, state = model_step(ex, x, state)
            l = F.mse_loss(out, y)
            total = l if total is None else F.add(total, l)
        total.backward()
        ex.check_drained()
        opt.step()
        losses.append(total.item())
    return losses


def test_tgcn_trains(setup):
    n, sg, ex, xs, ys = setup
    m = TGCN(4, 6)

    def step(ex_, x, s):
        h = m(ex_, x, s)
        return h, h

    losses = _train_sequence(step, list(m.parameters()), ex, xs, ys)
    assert losses[-1] < losses[0]


def test_tgcn_initial_state_zero(setup):
    n, sg, ex, xs, ys = setup
    m = TGCN(4, 6)
    h0 = m.initial_state(n)
    assert h0.shape == (n, 6) and not h0.data.any()


def test_tgcn_hidden_state_changes_output(setup):
    n, sg, ex, xs, ys = setup
    m = TGCN(4, 6)
    ex.begin_timestamp(0)
    with_zero = m(ex, xs[0], None).data
    warm = Tensor(np.ones((n, 6), dtype=np.float32))
    with_warm = m(ex, xs[0], warm).data
    assert not np.allclose(with_zero, with_warm)


def test_tgcn_has_three_convs_three_linears():
    m = TGCN(4, 6)
    # 3 convs (W+b each) + 3 linears (W+b each) = 12 parameters
    assert len(list(m.parameters())) == 12


def test_gconv_gru_trains(setup):
    n, sg, ex, xs, ys = setup
    m = GConvGRU(4, 6)

    def step(ex_, x, s):
        h = m(ex_, x, s)
        return h, h

    losses = _train_sequence(step, list(m.parameters()), ex, xs, ys)
    assert losses[-1] < losses[0]


def test_gconv_lstm_trains(setup):
    n, sg, ex, xs, ys = setup
    m = GConvLSTM(4, 6)

    def step(ex_, x, s):
        h, c = m(ex_, x, *(s if s else (None, None)))
        return h, (h, c)

    losses = _train_sequence(step, list(m.parameters()), ex, xs, ys)
    assert losses[-1] < losses[0]


def test_a3tgcn_attention_combines_periods(setup):
    n, sg, ex, xs, ys = setup
    m = A3TGCN(4, 6, periods=3)
    ex.begin_timestamp(0)
    out = m(ex, xs[:3])
    assert out.shape == (n, 6)
    F.sum(out).backward()
    ex.check_drained()
    assert m.attention.grad is not None


def test_a3tgcn_wrong_period_count(setup):
    n, sg, ex, xs, ys = setup
    m = A3TGCN(4, 6, periods=3)
    ex.begin_timestamp(0)
    with pytest.raises(ValueError, match="period"):
        m(ex, xs[:2])


def test_evolve_gcn_weight_evolves(setup):
    n, sg, ex, xs, ys = setup
    m = EvolveGCNO(4, 4)
    ex.begin_timestamp(0)
    m(ex, xs[0])
    w1 = m._weight.data.copy()
    ex.begin_timestamp(1)
    m(ex, xs[1])
    w2 = m._weight.data.copy()
    assert not np.allclose(w1, w2)  # the GRU evolved the weight
    ex.reset()


def test_evolve_gcn_reset_state(setup):
    n, sg, ex, xs, ys = setup
    m = EvolveGCNO(4, 4)
    ex.begin_timestamp(0)
    out1 = m(ex, xs[0]).data.copy()
    m.reset_state()
    ex.reset()
    ex.begin_timestamp(0)
    out2 = m(ex, xs[0]).data.copy()
    assert np.allclose(out1, out2)
    ex.reset()


def test_evolve_gcn_trains(setup):
    n, sg, ex, xs, ys4 = setup
    ys = [y[:, :4] for y in ys4]
    m = EvolveGCNO(4, 4)

    def step(ex_, x, s):
        out = m(ex_, x)
        return out, None

    opt = optim.Adam(m.parameters(), lr=1e-2)
    losses = []
    for _ in range(4):
        opt.zero_grad()
        m.reset_state()
        total = None
        for t, (x, y) in enumerate(zip(xs, ys)):
            ex.begin_timestamp(t)
            out, _ = step(ex, x, None)
            l = F.mse_loss(out, y)
            total = l if total is None else F.add(total, l)
        total.backward()
        ex.check_drained()
        opt.step()
        losses.append(total.item())
    assert losses[-1] < losses[0]


def test_temporal_models_share_kernel_cache(compile_cost):
    """All GCN-based temporal cells reuse the same compiled GCN kernels: the
    first cell pays for the plan and its kernels, the next two for nothing."""
    misses, compiles = compile_cost(lambda: TGCN(4, 6))
    assert misses > 0 and compiles > 0
    assert compile_cost(lambda: GConvGRU(4, 6)) == (0, 0)
    assert compile_cost(lambda: GConvLSTM(4, 6)) == (0, 0)
