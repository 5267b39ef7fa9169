"""Degree order (paper Figure 3) end to end: it moves no bit.

``sort_by_degree`` only permutes the rows an aggregation walks, and a row
permutation cannot change any row's summation order.  The operator-level
hypothesis suites compare the two orders launch by launch; these tests
compare whole training runs (losses and final gradients) and the serving
oracle, with ``sort_by_degree=True`` against the default identity order.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.dataset import load_hungary_chickenpox, load_sx_mathoverflow
from repro.device import Device, use_device
from repro.graph import DTDG, GPMAGraph
from repro.serve import harness, random_update_batches, serial_reference
from repro.tensor import init
from repro.train import (
    STGraphLinkPredictor,
    STGraphNodeRegressor,
    STGraphTrainer,
    make_link_prediction_samples,
)


def _run(build_model, graph, features, targets=None, **trainer_kwargs):
    """Two epochs; the hex losses and the final gradient of every parameter."""
    init.set_seed(0)
    model = build_model()
    trainer = STGraphTrainer(model, graph, lr=1e-2, **trainer_kwargs)
    losses = [float(x).hex() for x in trainer.train(features, targets, epochs=2)]
    grads = {name: p.grad.copy() for name, p in model.named_parameters()}
    return losses, grads


def _assert_same_run(a, b):
    assert a[0] == b[0]
    assert a[1].keys() == b[1].keys()
    for name in a[1]:
        assert np.array_equal(a[1][name], b[1][name]), name


def _is_permuted(csr) -> bool:
    """A degree order is a non-identity array; identity order is ``None``."""
    if csr.node_ids is None:
        return False
    assert not np.array_equal(csr.node_ids, np.arange(csr.num_nodes)), "identity order stored as an array"
    return True


def test_tgcn_link_prediction_on_gpma_is_bitwise_order_free():
    ds = load_sx_mathoverflow(scale=0.02, feature_size=8, max_snapshots=6)
    samples = make_link_prediction_samples(ds.dtdg, samples_per_timestamp=32, seed=0)

    def run(sort_by_degree):
        with use_device(Device(name=f"order-{sort_by_degree}")):
            graph = ds.build_gpma(sort_by_degree=sort_by_degree)
            graph.get_graph(ds.num_timestamps - 1)
            assert _is_permuted(graph.forward_csr()) == sort_by_degree
            return _run(
                lambda: STGraphLinkPredictor(ds.feature_size, 8), graph, ds.features,
                sequence_length=3, task="link_prediction", link_samples=samples,
            )

    _assert_same_run(run(True), run(False))


def test_node_regression_on_static_graph_is_bitwise_order_free():
    ds = load_hungary_chickenpox(lags=4, num_timestamps=10)

    def run(sort_by_degree):
        with use_device(Device(name=f"order-{sort_by_degree}")):
            graph = ds.build_graph(sort_by_degree=sort_by_degree)
            assert _is_permuted(graph.forward_csr()) == sort_by_degree
            return _run(lambda: STGraphNodeRegressor(4, 8), graph, ds.features, ds.targets)

    _assert_same_run(run(True), run(False))


def test_serial_reference_is_order_free(monkeypatch, rng):
    n, f = 80, 6
    src, dst = rng.integers(0, n, 400), rng.integers(0, n, 400)
    keep = src != dst
    dtdg = DTDG([(src[keep], dst[keep])], num_nodes=n)
    for update in random_update_batches(dtdg, 4, num_adds=12, num_deletes=6, seed=5):
        dtdg.append_update(update)
    feats = rng.standard_normal((n, f)).astype(np.float32)
    init.set_seed(1)
    model = STGraphNodeRegressor(f, 8)
    timestamps = [0, 2, dtdg.num_timestamps - 1]

    plain = serial_reference(model, dtdg, feats, timestamps)
    monkeypatch.setattr(
        harness, "GPMAGraph", functools.partial(GPMAGraph, sort_by_degree=True)
    )
    ordered = serial_reference(model, dtdg, feats, timestamps)
    for t in timestamps:
        assert np.array_equal(ordered[t][0], plain[t][0])
        assert np.array_equal(ordered[t][1], plain[t][1])
