"""Exception-safe unwinding: a failure in any phase of Algorithm 1's
sequence loop must drain the State/Graph Stacks (via ``abort_sequence``)
so the executor is immediately reusable for the next epoch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset import load_sx_mathoverflow
from repro.resilience import FaultPlan, FaultSite, SimulatedKill, use_fault_plan
from repro.tensor import init
from repro.tensor.tensor import Tensor
from repro.train import STGraphLinkPredictor, STGraphTrainer, make_link_prediction_samples


def _make_trainer(seed: int = 0):
    ds = load_sx_mathoverflow(scale=0.02, feature_size=8, max_snapshots=6)
    samples = make_link_prediction_samples(ds.dtdg, samples_per_timestamp=32, seed=seed)
    init.set_seed(seed)
    model = STGraphLinkPredictor(ds.feature_size, 8)
    trainer = STGraphTrainer(
        model, ds.build_gpma(), lr=1e-2, sequence_length=3,
        task="link_prediction", link_samples=samples,
    )
    return ds, trainer


def _assert_clean(trainer, fresh_device, aborts: int = 1) -> None:
    trainer.executor.check_drained()  # stacks drained by abort_sequence
    with pytest.raises(RuntimeError):
        trainer.executor.current_context()  # context cleared by reset
    stats = trainer.executor.stats()
    assert stats["sequence_aborts"] == aborts
    assert fresh_device.totals.read().count("sequence_aborts") == aborts


def _assert_recovers(ds, trainer) -> None:
    loss = trainer.train_epoch(ds.features)
    assert np.isfinite(loss)
    trainer.executor.check_drained()


def test_graph_update_failure_unwinds(fresh_device):
    ds, trainer = _make_trainer()
    calls = {"n": 0}
    orig = trainer.graph.get_graph

    def flaky(t):
        calls["n"] += 1
        if calls["n"] == 4:  # fail mid-sequence, not on the first snapshot
            raise RuntimeError("injected graph_update failure")
        return orig(t)

    trainer.graph.get_graph = flaky
    with pytest.raises(RuntimeError, match="graph_update"):
        trainer.train_epoch(ds.features)
    _assert_clean(trainer, fresh_device)
    trainer.graph.get_graph = orig
    _assert_recovers(ds, trainer)


def test_forward_oom_unwinds(fresh_device):
    ds, trainer = _make_trainer()
    plan = FaultPlan(name="oom", sites=[FaultSite(kind="oom", epoch=0, sequence=1, timestamp=4)])
    with use_fault_plan(plan), pytest.raises(MemoryError):
        trainer.train_epoch(ds.features)
    _assert_clean(trainer, fresh_device)
    _assert_recovers(ds, trainer)


def test_backward_failure_unwinds(fresh_device, monkeypatch):
    ds, trainer = _make_trainer()

    def boom(self, *args, **kwargs):
        raise RuntimeError("injected backward failure")

    monkeypatch.setattr(Tensor, "backward", boom)
    with pytest.raises(RuntimeError, match="backward"):
        trainer.train_epoch(ds.features)
    monkeypatch.undo()
    _assert_clean(trainer, fresh_device)
    _assert_recovers(ds, trainer)


def test_optimizer_failure_unwinds(fresh_device):
    ds, trainer = _make_trainer()
    orig = trainer.optimizer.step

    def boom():
        raise RuntimeError("injected optimizer failure")

    trainer.optimizer.step = boom
    with pytest.raises(RuntimeError, match="optimizer"):
        trainer.train_epoch(ds.features)
    # Backward already drained the stacks; abort after the optimizer phase
    # must still be safe (it resets an already-clean executor).
    _assert_clean(trainer, fresh_device)
    trainer.optimizer.step = orig
    _assert_recovers(ds, trainer)


def test_kill_escapes_except_exception_but_still_unwinds(fresh_device):
    ds, trainer = _make_trainer()
    plan = FaultPlan(name="kill", sites=[FaultSite(kind="kill", epoch=0, sequence=0, timestamp=1)])
    with use_fault_plan(plan):
        try:
            trainer.train_epoch(ds.features)
            pytest.fail("planned kill never fired")
        except Exception:  # noqa: BLE001 - the point: kill is NOT an Exception
            pytest.fail("SimulatedKill must escape `except Exception`")
        except SimulatedKill:
            pass
    _assert_clean(trainer, fresh_device)
    _assert_recovers(ds, trainer)


def test_cache_stats_stay_consistent_after_abort(fresh_device):
    """The reuse counters partition positionings even across an abort."""
    ds, trainer = _make_trainer()
    plan = FaultPlan(name="oom", sites=[FaultSite(kind="oom", epoch=0, sequence=1, timestamp=5)])
    with use_fault_plan(plan), pytest.raises(MemoryError):
        trainer.train_epoch(ds.features)
    _assert_recovers(ds, trainer)
    totals = fresh_device.totals.read()
    served = totals.count("ctx_cache_hits") + totals.count("csr_cache_hits")
    rebuilt = totals.count("csr_cache_misses")
    # Every CSR-level event maps to a real positioning; an aborted sequence
    # must not leave phantom hits or misses behind.
    assert served + rebuilt > 0
    assert trainer.graph.csr_cache_hits + trainer.graph.csr_cache_misses <= served + rebuilt
