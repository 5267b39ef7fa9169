"""A GPMA graph makes its PMA on first read; no DTDG build stores identity labels.

* a fresh ``GPMAGraph`` makes no ``UpdateCursor`` (no ``pma.*`` byte, no
  ``graph.preprocess`` span) and reads its counters without making one; its
  first snapshot makes the cursor once, and its training losses equal, hex
  for hex, the run of a graph that made its PMA at construction (pinned
  below, and against an eagerly read graph in the same process);
* edge-weighted GCN and GAT launches give bitwise-equal outputs and
  gradients on ``GPMAGraph`` and ``NaiveGraph`` (whose out-CSR stores no
  labels: ``bwd.eids is None``) and on a ``StaticGraph`` over the same
  key-sorted edges (whose labels are an explicit ``arange``), on both
  engines.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.graph.gpma_graph as gpma_module
from repro.core import TemporalExecutor
from repro.dataset import load_sx_mathoverflow
from repro.device import Device, use_device
from repro.graph import DTDG, GPMAGraph, NaiveGraph, StaticGraph
from repro.nn import GATConv, GCNConv
from repro.tensor import Tensor, functional as F, init
from repro.train import STGraphLinkPredictor, STGraphTrainer, make_link_prediction_samples

#: Two epochs of the run below on a graph that made its PMA in its
#: constructor (the build before the PMA was made lazily).
PINNED_LOSSES = ["0x1.096f860000000p+2", "0x1.045d6c0000000p+2"]


@pytest.fixture
def cursors_made(monkeypatch):
    """Every ``UpdateCursor`` a ``GPMAGraph`` makes, in order."""
    made = []
    real = gpma_module.UpdateCursor

    def counting(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(gpma_module, "UpdateCursor", counting)
    return made


def _pma_bytes(device: Device) -> int:
    return sum(b for tag, b in device.tracker.peak_bytes_by_tag().items() if tag.startswith("pma."))


def test_a_fresh_graph_makes_its_cursor_on_the_first_snapshot(cursors_made):
    rng = np.random.default_rng(0)
    dtdg = DTDG([(rng.integers(0, 20, 60), rng.integers(0, 20, 60)) for _ in range(3)], 20)
    with use_device(Device(name="lazy-pma")) as device:
        graph = GPMAGraph(dtdg)
        graph.get_graph(2)
        assert (graph.update_batches_applied, graph.cache_restores) == (0, 0)
        assert graph.cache_stats()["csr_cache_misses"] == 0
        assert graph.num_edges == dtdg.snapshot_edge_count(2)
        assert cursors_made == [] and _pma_bytes(device) == 0
        assert device.totals.read().calls("graph.preprocess") == 0

        graph.snapshot()
        assert len(cursors_made) == 1 and _pma_bytes(device) > 0
        assert device.totals.read().calls("graph.preprocess") == 1
        assert graph.update_batches_applied == 2  # caught up from the base graph
        graph.get_graph(0)
        graph.snapshot()
        graph.cache_snapshot()
        assert graph.storage_bytes() > 0
        assert len(cursors_made) == 1


def _losses(ds, samples, eager: bool) -> list[str]:
    with use_device(Device(name=f"eager-{eager}")):
        graph = ds.build_gpma()
        if eager:
            graph.pma  # what the constructor made before the PMA was lazy
        init.set_seed(0)
        trainer = STGraphTrainer(
            STGraphLinkPredictor(ds.feature_size, 8), graph, lr=1e-2,
            sequence_length=3, task="link_prediction", link_samples=samples,
        )
        return [float(x).hex() for x in trainer.train(ds.features, None, epochs=2)]


def test_training_losses_are_those_of_a_pma_made_at_construction(cursors_made):
    ds = load_sx_mathoverflow(scale=0.02, feature_size=8, max_snapshots=6)
    samples = make_link_prediction_samples(ds.dtdg, samples_per_timestamp=32, seed=0)
    lazy = _losses(ds, samples, eager=False)
    assert len(cursors_made) == 1
    assert lazy == _losses(ds, samples, eager=True) == PINNED_LOSSES


def _weighted_run(graph, t, layer, engine):
    """One recorded step at ``t``: the output and every gradient."""
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((graph.num_nodes, 4)).astype(np.float32), requires_grad=True)
    init.set_seed(2)
    ex = TemporalExecutor(graph, engine=engine)
    ex.begin_timestamp(t)
    if layer == "gcn":
        conv = GCNConv(4, 3, edge_weighted=True, add_self_loops=False)
        w = rng.standard_normal(graph.num_edges).astype(np.float32)
        out = conv(ex, x, edge_weight=w)
    else:
        conv = GATConv(4, 3, heads=2)
        out = conv(ex, x)
    F.sum(F.mul(out, out)).backward()
    ex.check_drained()
    return [out.data, x.grad] + [p.grad for _, p in conv.named_parameters()]


@pytest.mark.parametrize("engine", ["kernel", "interpreter"])
@pytest.mark.parametrize("layer", ["gcn", "gat"])
def test_weighted_launches_agree_with_and_without_stored_out_labels(layer, engine):
    rng = np.random.default_rng(4)
    n = 30
    dtdg = DTDG([(rng.integers(0, n, 120), rng.integers(0, n, 120)) for _ in range(3)], n)
    for t in range(dtdg.num_timestamps):
        static = StaticGraph(*dtdg.snapshot_edges(t), n)  # key-sorted edges: labels are their ranks
        graphs = [GPMAGraph(dtdg), NaiveGraph(dtdg), static]
        for graph in graphs[:2]:
            assert graph.get_graph(t).snapshot().bwd.eids is None
        assert np.array_equal(static.snapshot().bwd.eids, np.arange(static.num_edges))
        want = _weighted_run(static, t, layer, engine)
        for graph in graphs[:2]:
            got = _weighted_run(graph, t, layer, engine)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (type(graph).__name__, t)
