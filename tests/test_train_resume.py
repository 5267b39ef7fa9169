"""Checkpoint/resume and graceful degradation, end to end.

The determinism gate: kill a training run at planned sites (mid-sequence
and at sequence boundaries), resume from the boundary checkpoint in a
fresh process stand-in (new device, new trainer, new graph), and require
**bitwise-identical** final losses versus the uninterrupted run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dataset import load_sx_mathoverflow
from repro.device import Device, use_device
from repro.obs import build_run_manifest, write_chrome_trace
from repro.obs import Tracer, use_tracer
from repro.resilience import (
    BOUNDARY,
    FaultPlan,
    FaultSite,
    SimulatedKill,
    named_plan,
    run_chaos,
    use_fault_plan,
)
from repro.tensor import init
from repro.train import STGraphLinkPredictor, STGraphTrainer, make_link_prediction_samples
from repro.train.checkpoint import load_training_checkpoint, save_training_checkpoint

_EPOCHS = 3
_SEED = 0


@pytest.fixture(scope="module")
def workload():
    ds = load_sx_mathoverflow(scale=0.02, feature_size=8, max_snapshots=6)
    samples = make_link_prediction_samples(ds.dtdg, samples_per_timestamp=32, seed=_SEED)
    return ds, samples


def _fresh_trainer(workload) -> STGraphTrainer:
    ds, samples = workload
    init.set_seed(_SEED)
    model = STGraphLinkPredictor(ds.feature_size, 8)
    return STGraphTrainer(
        model, ds.build_gpma(), lr=1e-2, sequence_length=3,
        task="link_prediction", link_samples=samples,
    )


def _reference_losses(workload) -> list[float]:
    ds, _ = workload
    with use_device(Device(name="reference")):
        return _fresh_trainer(workload).train(ds.features, epochs=_EPOCHS)


# Three kill sites for the determinism gate: mid-sequence in the first and
# last epoch, and a boundary kill (fires right after the checkpoint write).
_KILL_SITES = [
    FaultSite(kind="kill", epoch=0, sequence=1, timestamp=4),
    FaultSite(kind="kill", epoch=1, sequence=0, timestamp=BOUNDARY),
    FaultSite(kind="kill", epoch=2, sequence=1, timestamp=5),
]


@pytest.mark.parametrize(
    "site", _KILL_SITES, ids=["mid-seq-epoch0", "boundary-epoch1", "mid-seq-epoch2"]
)
def test_resume_is_bitwise_identical_across_fresh_devices(tmp_path, workload, site):
    ds, _ = workload
    reference = _reference_losses(workload)
    ckpt = tmp_path / "resume.npz"

    # Attempt 1: train under the kill plan until the simulated process death.
    plan = FaultPlan(name="one-kill", sites=[site])
    with use_device(Device(name="doomed")), use_fault_plan(plan):
        doomed = _fresh_trainer(workload)
        with pytest.raises(SimulatedKill):
            doomed.train(ds.features, epochs=_EPOCHS, checkpoint_path=ckpt)
        doomed.executor.check_drained()  # the kill still unwound the stacks
    assert ckpt.exists()

    # Attempt 2: a brand-new "process" — fresh device, trainer, graph — picks
    # up from the checkpoint and must land on the exact same trajectory.
    with use_device(Device(name="resumed")):
        trainer = _fresh_trainer(workload)
        losses = trainer.train(ds.features, epochs=_EPOCHS, checkpoint_path=ckpt, resume=True)
    assert trainer.resumed_from == str(ckpt)
    assert len(losses) == len(reference) == _EPOCHS
    assert all(np.float64(a) == np.float64(b) for a, b in zip(losses, reference))


def test_resume_from_a_checkpoint_with_a_graph_cursor(tmp_path, workload):
    """Older trees checkpointed the graph's version bookkeeping as
    ``graph_cursor``; this one writes no such key and does not read one it is
    given, because a snapshot's version is a function of the DTDG."""
    ds, _ = workload
    reference = _reference_losses(workload)
    ckpt = tmp_path / "old-format.npz"
    plan = FaultPlan(name="one-kill", sites=[FaultSite(kind="kill", epoch=1, sequence=1, timestamp=4)])
    with use_device(Device(name="doomed")), use_fault_plan(plan):
        with pytest.raises(SimulatedKill):
            _fresh_trainer(workload).train(ds.features, epochs=_EPOCHS, checkpoint_path=ckpt)
    with use_device(Device(name="rewriter")):
        carrier = _fresh_trainer(workload)
        state = load_training_checkpoint(ckpt, carrier.model, carrier.optimizer)
        assert "graph_cursor" not in state
        T = ds.dtdg.num_timestamps
        state["graph_cursor"] = {  # what the killed run's parent would have written
            "curr_time": 0, "snapshot_version": 0, "version_counter": T - 1,
            "ts_versions": {str(t): t for t in range(T)},
        }
        save_training_checkpoint(ckpt, carrier.model, carrier.optimizer, state)
    with use_device(Device(name="resumed")):
        trainer = _fresh_trainer(workload)
        losses = trainer.train(ds.features, epochs=_EPOCHS, checkpoint_path=ckpt, resume=True)
    assert trainer.resumed_from == str(ckpt)
    assert all(np.float64(a) == np.float64(b) for a, b in zip(losses, reference))


def test_kernel_fault_walks_retry_then_fallback(tmp_path, workload):
    """times=2 exhausts launch + retry → interpreter fallback; the run still
    completes and the ladder is visible in the manifest and Chrome trace."""
    ds, _ = workload
    reference = _reference_losses(workload)
    plan = FaultPlan(
        name="ladder",
        sites=[FaultSite(kind="kernel", epoch=0, sequence=0, timestamp=1, times=2)],
    )
    tracer = Tracer(name="ladder")
    device = Device(name="ladder")
    with use_device(device), use_fault_plan(plan), use_tracer(tracer):
        trainer = _fresh_trainer(workload)
        losses = trainer.train(ds.features, epochs=_EPOCHS)
        manifest = build_run_manifest(
            device, graph=trainer.graph,
            run_name="ladder", command="pytest", system="stgraph", dataset=ds.name,
        )

    # Exactly one retry, then exactly one fallback to the interpreter engine.
    assert trainer.executor.kernel_retries == 1
    assert trainer.executor.engine_fallbacks == 1
    assert manifest.retries == 1
    assert manifest.engine_fallbacks == 1
    assert manifest.faults_injected == {"kernel": 2}
    # Training completed, and the interpreter fallback is bitwise-equal.
    assert all(np.float64(a) == np.float64(b) for a, b in zip(losses, reference))

    trace_path = write_chrome_trace(tracer, str(tmp_path / "ladder.json"))
    events = json.loads(open(trace_path).read())["traceEvents"]
    by_name = {e["name"] for e in events}
    assert {"fault.kernel", "core.kernel_retry", "core.engine_fallback"} <= by_name
    fallback = next(e for e in events if e["name"] == "core.engine_fallback")
    assert fallback["ph"] == "i" and fallback["cat"] == "fault"


def test_single_kernel_fault_retries_once_and_succeeds(workload):
    """times=1 lets the retry succeed: no fallback, differential check passes."""
    ds, _ = workload
    reference = _reference_losses(workload)
    plan = FaultPlan(
        name="retry",
        sites=[FaultSite(kind="kernel", epoch=1, sequence=1, timestamp=3, times=1)],
    )
    with use_device(Device(name="retry")), use_fault_plan(plan):
        trainer = _fresh_trainer(workload)
        losses = trainer.train(ds.features, epochs=_EPOCHS)
    assert trainer.executor.kernel_retries == 1
    assert trainer.executor.engine_fallbacks == 0
    assert all(np.float64(a) == np.float64(b) for a, b in zip(losses, reference))


def test_cache_fault_rebuilds_and_preserves_losses(workload):
    ds, _ = workload
    reference = _reference_losses(workload)
    # Fire at the second sequence's first context build: the caches seq 0
    # populated are all flagged corrupt mid-run, not trivially while empty.
    # (Later epochs may serve every context from the executor's keyed LRU
    # without ever consulting the graph's build path, so the site targets
    # the first epoch, where fresh snapshot keys force a build.)
    plan = FaultPlan(name="cache", sites=[FaultSite(kind="cache", epoch=0, sequence=1)])
    device = Device(name="cache-fault")
    with use_device(device), use_fault_plan(plan) as injector:
        trainer = _fresh_trainer(workload)
        losses = trainer.train(ds.features, epochs=_EPOCHS)
    assert injector.exhausted()
    assert trainer.graph.cache_fault_rebuilds == 1
    assert device.totals.read().count("cache_fault_rebuilds") == 1
    # The Algorithm-3 rebuild path is a pure re-derivation: same losses.
    assert all(np.float64(a) == np.float64(b) for a, b in zip(losses, reference))


def test_resume_rejects_epoch_count_mismatch(tmp_path, workload):
    ds, _ = workload
    ckpt = tmp_path / "mismatch.npz"
    with use_device(Device(name="a")):
        _fresh_trainer(workload).train(ds.features, epochs=2, checkpoint_path=ckpt)
    with use_device(Device(name="b")):
        trainer = _fresh_trainer(workload)
        with pytest.raises(ValueError, match="2-epoch"):
            trainer.train(ds.features, epochs=5, checkpoint_path=ckpt, resume=True)


def test_resume_without_checkpoint_file_starts_fresh(tmp_path, workload):
    """A kill before the first boundary leaves no checkpoint; resume=True
    must then behave like a fresh start (the chaos harness relies on it)."""
    ds, _ = workload
    reference = _reference_losses(workload)
    ckpt = tmp_path / "never-written.npz"
    with use_device(Device(name="fresh")):
        trainer = _fresh_trainer(workload)
        losses = trainer.train(ds.features, epochs=_EPOCHS, checkpoint_path=ckpt, resume=True)
    assert trainer.resumed_from is None
    assert all(np.float64(a) == np.float64(b) for a, b in zip(losses, reference))


def test_chaos_smoke_plan_passes():
    report = run_chaos(named_plan("smoke"))
    assert report.ok, report.render()
    assert report.kills == 1
    assert report.counters["kernel_retries"] >= 1
    assert report.counters["engine_fallbacks"] >= 1
    assert report.manifest.resumed_from is not None
    assert report.manifest.faults_injected.get("kernel", 0) >= 2


def test_chaos_kill_matrix_passes():
    report = run_chaos(named_plan("kill-matrix"))
    assert report.ok, report.render()
    assert report.kills == 3  # one resume per planned boundary kill
