"""Execution engines: registry semantics + kernel/interpreter equivalence.

The interpreter executes the same tensor-IR ops against the same runtime
primitives in the same order as the generated kernels, so outputs and
gradients must be *bitwise* identical — any disagreement is a codegen bug.
"""

from __future__ import annotations

import copy

import networkx as nx
import numpy as np
import pytest

from repro.compiler import compile_vertex_program
from repro.compiler.runtime import GraphContext
from repro.core import (
    InterpreterEngine,
    KernelEngine,
    TemporalExecutor,
    available_engines,
    get_engine,
)
from repro.core.engine import register_engine
from repro.device import current_device
from repro.graph import StaticGraph
from repro.nn import (
    A3TGCN,
    DCRNN,
    ChebConv,
    EvolveGCNO,
    GATConv,
    GConvGRU,
    GConvLSTM,
    GCNConv,
    RGCNConv,
    SAGEConv,
    TGCN,
)
from repro.tensor import Tensor, functional as F, init

N, F_IN = 18, 4


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_available_engines():
    assert available_engines() == ["interpreter", "kernel"]


def test_get_engine_memoizes_singletons():
    assert get_engine("kernel") is get_engine("kernel")
    assert isinstance(get_engine("kernel"), KernelEngine)
    assert isinstance(get_engine("interpreter"), InterpreterEngine)


def test_get_engine_instance_passthrough():
    engine = InterpreterEngine()
    assert get_engine(engine) is engine


def test_get_engine_unknown_raises():
    with pytest.raises(KeyError, match="unknown engine"):
        get_engine("tpu")


def test_get_engine_unknown_lists_available():
    """The KeyError names every registered engine, so typos are self-serve."""
    with pytest.raises(KeyError) as excinfo:
        get_engine("copiled")
    message = str(excinfo.value)
    for name in available_engines():
        assert name in message


def test_register_engine_idempotent_for_same_factory():
    """Re-registering the same factory under its own name is a no-op
    (module re-imports and plugin hooks must not explode)."""
    register_engine("kernel", KernelEngine)
    register_engine("interpreter", InterpreterEngine)
    assert isinstance(get_engine("kernel"), KernelEngine)


def test_register_engine_rejects_genuine_conflict():
    """A *different* factory claiming a taken name still raises."""
    with pytest.raises(ValueError, match="already registered"):
        register_engine("kernel", InterpreterEngine)


def test_executor_engine_override():
    """The executor's engine is chosen at construction or by assignment,
    and every aggregation run through it uses that engine."""
    sg = StaticGraph.from_networkx(nx.gnp_random_graph(6, 0.5, seed=1, directed=True))
    assert isinstance(TemporalExecutor(sg, engine="interpreter").engine, InterpreterEngine)
    ex = TemporalExecutor(sg)
    ex.engine = get_engine("interpreter")
    ex.begin_timestamp(0)
    x = Tensor(np.ones((6, F_IN), dtype=np.float32))
    before = _launches()
    GCNConv(F_IN, 3)(ex, x)
    assert _launches() == before  # the aggregation bypassed the launcher


def test_executor_default_engine_is_kernel():
    sg = StaticGraph.from_networkx(nx.gnp_random_graph(6, 0.5, seed=1, directed=True))
    ex = TemporalExecutor(sg)
    assert isinstance(ex.engine, KernelEngine)
    assert ex.stats()["engine"] == "kernel"


def test_executor_stats_name_engine():
    sg = StaticGraph.from_networkx(nx.gnp_random_graph(6, 0.5, seed=1, directed=True))
    assert TemporalExecutor(sg, engine="interpreter").stats()["engine"] == "interpreter"


# ---------------------------------------------------------------------------
# Differential testing: kernel vs interpreter, bitwise, across the layer zoo
# ---------------------------------------------------------------------------
def _gcn(ex, x, x2, rng):
    return GCNConv(F_IN, 3)(ex, x)


def _gcn_weighted(ex, x, x2, rng):
    conv = GCNConv(F_IN, 3, edge_weighted=True, add_self_loops=False)
    w = rng.random(ex.graph.num_edges).astype(np.float32)
    return conv(ex, x, w)


def _gat(ex, x, x2, rng):
    return GATConv(F_IN, 3, heads=2)(ex, x)


def _sage(ex, x, x2, rng):
    return SAGEConv(F_IN, 3)(ex, x)


def _cheb(ex, x, x2, rng):
    return ChebConv(F_IN, 3, k=3)(ex, x)


def _rgcn(ex, x, x2, rng):
    rel = rng.integers(0, 2, size=ex.graph.num_edges)
    return RGCNConv(F_IN, 3, num_relations=2)(ex, x, rel)


def _tgcn(ex, x, x2, rng):
    model = TGCN(F_IN, 3)
    return model(ex, x2, model(ex, x))


def _gconv_gru(ex, x, x2, rng):
    model = GConvGRU(F_IN, 3)
    return model(ex, x2, model(ex, x))


def _gconv_lstm(ex, x, x2, rng):
    model = GConvLSTM(F_IN, 3)
    h, c = model(ex, x)
    h, c = model(ex, x2, h, c)
    return F.add(h, c)


def _a3tgcn(ex, x, x2, rng):
    return A3TGCN(F_IN, 3, periods=2)(ex, [x, x2])


def _evolve_gcn(ex, x, x2, rng):
    model = EvolveGCNO(F_IN, 3)
    return model(ex, x)


def _dcrnn(ex, x, x2, rng):
    model = DCRNN(F_IN, 3, k=2)
    return model(ex, x2, model(ex, x))


ZOO = {
    "gcn": _gcn,
    "gcn_weighted": _gcn_weighted,
    "gat": _gat,
    "sage": _sage,
    "cheb": _cheb,
    "rgcn": _rgcn,
    "tgcn": _tgcn,
    "gconv_gru": _gconv_gru,
    "gconv_lstm": _gconv_lstm,
    "a3tgcn": _a3tgcn,
    "evolve_gcn": _evolve_gcn,
    "dcrnn": _dcrnn,
}


def _run(case, engine):
    """One forward+backward pass of a zoo model on the named engine.

    Seeds pin weights and data, so across engines the only variable is how
    each compiled aggregation executes.
    """
    sg = StaticGraph.from_networkx(nx.gnp_random_graph(N, 0.25, seed=13, directed=True))
    ex = TemporalExecutor(sg, engine=engine)
    ex.begin_timestamp(0)
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((N, F_IN)).astype(np.float32), requires_grad=True)
    x2 = Tensor(rng.standard_normal((N, F_IN)).astype(np.float32), requires_grad=True)
    init.set_seed(21)
    out = ZOO[case](ex, x, x2, rng)
    F.sum(out).backward()
    grads = {"__x__": x.grad, "__x2__": x2.grad}
    # Reach the model through the tape: parameters hold grads after backward.
    return out.data, grads, ex


@pytest.mark.parametrize("other", ["interpreter"])
@pytest.mark.parametrize("case", sorted(ZOO), ids=sorted(ZOO))
def test_engines_agree_bitwise(case, other):
    out_k, grads_k, _ = _run(case, "kernel")
    out_i, grads_i, _ = _run(case, other)
    assert np.array_equal(out_k, out_i)
    for name in grads_k:
        gk, gi = grads_k[name], grads_i[name]
        if gk is None and gi is None:
            continue
        assert gk is not None and gi is not None, name
        assert np.array_equal(gk, gi), name


def test_model_parameter_grads_agree_bitwise():
    """Same check through the parameters, for a model with many gates."""
    def run(engine):
        sg = StaticGraph.from_networkx(
            nx.gnp_random_graph(N, 0.25, seed=13, directed=True)
        )
        ex = TemporalExecutor(sg, engine=engine)
        ex.begin_timestamp(0)
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((N, F_IN)).astype(np.float32))
        init.set_seed(3)
        model = TGCN(F_IN, 5)
        F.sum(model(ex, x)).backward()
        return {n: p.grad.copy() for n, p in model.named_parameters()}

    gk, gi = run("kernel"), run("interpreter")
    assert gk.keys() == gi.keys()
    for name in gk:
        assert np.array_equal(gk[name], gi[name]), name


def _launches() -> int:
    return current_device().totals.read().calls("device.kernel_launch")


def test_interpreter_launches_no_kernels():
    _, _, _ = _run("gcn", "interpreter")
    before = _launches()
    _run("gcn", "interpreter")
    assert _launches() == before


def test_kernel_launches_leave_the_plan_untouched(rng):
    """Run time only reads a plan: a forward plus a backward change no
    attribute of either kernel, so one plan can serve every thread."""
    g = nx.gnp_random_graph(N, 0.3, seed=5, directed=True)
    ctx = GraphContext(StaticGraph.from_networkx(g))
    # A feature name no other test uses, so this plan is fresh.
    prog = compile_vertex_program(
        lambda v: v.agg_sum(lambda nb: nb.h_readonly),
        feature_widths={"h_readonly": "v"}, name="readonly",
    )
    kernels = (prog.fwd_kernel, prog.bwd_kernel)
    before = [copy.deepcopy(vars(k)) for k in kernels]
    h = rng.standard_normal((N, 12)).astype(np.float32)
    out, saved = prog.forward(ctx, {"h_readonly": h}, engine=get_engine("kernel"))
    prog.backward(ctx, np.ones_like(out), saved, engine=get_engine("kernel"))
    assert [vars(k) for k in kernels] == before


@pytest.mark.parametrize("dataset", ["sx-mathoverflow", "reddit-title"])
def test_gpma_training_losses_bitwise_across_engines_and_store(dataset):
    """A whole DTDG training run on a GPMA graph: neither the engine nor the
    context store (on / off) moves a single loss bit."""
    from repro.dataset import DYNAMIC_DATASETS
    from repro.device import Device, use_device
    from repro.train import STGraphLinkPredictor, STGraphTrainer, make_link_prediction_samples

    ds = DYNAMIC_DATASETS[dataset](scale=0.02, feature_size=8, max_snapshots=8)
    samples = make_link_prediction_samples(ds.dtdg, samples_per_timestamp=32, seed=0)

    def losses(engine, store):
        with use_device(Device(name=f"diff-{engine}-{store}")):
            init.set_seed(0)
            trainer = STGraphTrainer(
                STGraphLinkPredictor(ds.feature_size, 8), ds.build_gpma(),
                lr=1e-2, sequence_length=3, task="link_prediction", link_samples=samples,
            )
            trainer.executor.engine = get_engine(engine)
            if not store:
                trainer.executor.ctx_cache_size = 0
            return [float(x).hex() for x in trainer.train(ds.features, epochs=3)]

    reference = losses("kernel", True)
    assert losses("interpreter", True) == reference
    assert losses("kernel", False) == reference
