"""Every step of the stack writes one record, at the point where its work runs.

On a short GPMA TGCN epoch: an aggregation is its kernel launch (one forward,
one backward), or one ``core.interpret`` interval per direction on the
interpreter engine, which launches nothing; Algorithm 2's replay is one
``graph.advance`` around the ``UpdateCursor.advance`` that moves the PMA,
and a logical move records nothing; the State Stack's bytes ride on the
``train.timestamp`` record of each step.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.module as module
from repro.core.engine import ENGINES
from repro.core.executor import TemporalExecutor
from repro.dataset import load_sx_mathoverflow
from repro.graph.snapshot_builder import UpdateCursor
from repro.obs import Tracer, use_tracer
from repro.tensor import init
from repro.train import STGraphLinkPredictor, STGraphTrainer, make_link_prediction_samples


@pytest.fixture(scope="module")
def dynamic_ds():
    return load_sx_mathoverflow(scale=0.01, feature_size=4, max_snapshots=6)


def _trainer(ds, engine: str = "kernel") -> STGraphTrainer:
    samples = make_link_prediction_samples(ds.dtdg, 32, seed=3)
    init.set_seed(3)
    trainer = STGraphTrainer(
        STGraphLinkPredictor(4, 4), ds.build_gpma(), sequence_length=3,
        task="link_prediction", link_samples=samples,
    )
    trainer.executor.engine = ENGINES[engine]
    return trainer


def _count_aggregations(monkeypatch) -> list[str]:
    """Record the program of every aggregation a layer runs."""
    calls: list[str] = []
    real = module.graph_aggregate

    def counting(program, *args, **kwargs):
        calls.append(program.name)
        return real(program, *args, **kwargs)

    monkeypatch.setattr(module, "graph_aggregate", counting)
    return calls


def test_kernel_engine_aggregation_is_its_two_launches(dynamic_ds, monkeypatch, fresh_device):
    aggregations = _count_aggregations(monkeypatch)
    _trainer(dynamic_ds).train_epoch(dynamic_ds.features)
    totals = fresh_device.totals.read()
    assert aggregations
    assert totals.calls("device.kernel_launch") == 2 * len(aggregations)
    assert totals.calls("core.interpret") == 0


def test_interpreter_engine_aggregation_is_two_interpret_intervals(dynamic_ds, monkeypatch, fresh_device):
    aggregations = _count_aggregations(monkeypatch)
    _trainer(dynamic_ds, engine="interpreter").train_epoch(dynamic_ds.features)
    totals = fresh_device.totals.read()
    assert aggregations
    assert totals.calls("core.interpret") == 2 * len(aggregations)
    assert totals.calls("device.kernel_launch") == 0
    assert totals.seconds("gnn") > 0


def test_graph_advance_is_one_record_per_replay(dynamic_ds, monkeypatch, fresh_device):
    moved: list[int] = []
    real = UpdateCursor.advance

    def counting(self, t):
        if self.time != t:
            moved.append(t)
        return real(self, t)

    monkeypatch.setattr(UpdateCursor, "advance", counting)
    _trainer(dynamic_ds).train_epoch(dynamic_ds.features)
    totals = fresh_device.totals.read()
    assert moved
    assert totals.calls("graph.advance") == len(moved)
    counts, _ = totals.histograms[("graph.advance", ())]
    assert sum(counts) == len(moved)  # every replay observed once


def test_lifo_walk_served_from_the_context_store_replays_nothing(dynamic_ds, fresh_device):
    executor = TemporalExecutor(dynamic_ds.build_gpma(), ctx_cache_size=4)
    steps = range(4)
    for t in steps:
        executor.begin_timestamp(t)
    forward = fresh_device.totals.read()
    assert forward.calls("graph.advance") > 0  # the forward builds did replay
    for t in reversed(steps):
        executor.backward_context(t)
    executor.check_drained()
    walk = fresh_device.totals.read()
    assert walk.count("ctx_cache_hits") - forward.count("ctx_cache_hits") == len(steps)
    assert walk.calls("graph.advance") == forward.calls("graph.advance")


def test_train_timestamp_carries_the_state_stack_bytes(dynamic_ds, monkeypatch):
    """The record of each step carries the State Stack's running total.  A
    TGCN's entries hold its ``norm`` as a function of the context (no bytes),
    so each push here adds an 8-byte marker to make the total move."""
    trainer = _trainer(dynamic_ds)
    stack = trainer.executor.state_stack
    push = stack.push
    monkeypatch.setattr(stack, "push", lambda t, saved, tag="": push(t, {**saved, "marker": np.zeros(2)}, tag))
    at_step: list[int] = []
    loss_at = trainer._loss_at

    def recording(t, pred, targets):
        at_step.append(stack.current_bytes())  # the step's aggregations have all pushed
        return loss_at(t, pred, targets)

    monkeypatch.setattr(trainer, "_loss_at", recording)
    tracer = Tracer(name="state-bytes")
    with use_tracer(tracer):
        trainer.train_epoch(dynamic_ds.features)
    traced = [e.args["state_bytes"] for e in tracer.span_events() if e.name == "train.timestamp"]
    assert traced == at_step
    assert len(traced) == len(dynamic_ds.features) and min(traced) > 0
