"""A step's input is on the device only while its sequence's tape reads it.

The training loops (STGraph and the PyG-T baseline) and
``evaluate_regression`` take each step's input through
:class:`repro.train.utils.StepInputs`: ``DeviceAllocator.upload`` copies the
host array to the device, and the copy lives while the step or the tape
reads it.  These tests pin that

* no live tracked allocation shares memory with a dataset array after
  training or evaluation (wrapping ``Tensor(features[t])`` would count the
  dataset's buffer for the dataset's lifetime);
* at most a sequence's ``L`` inputs are resident at once (one under
  ``no_grad``), and the ``tensor`` peak holds no more than ``L`` of them;
* one array shared by every timestamp is uploaded once per sequence, and
  its ``tensor`` peak equals the adopting loop's, which kept that one
  array resident all along;
* losses, parameters and every parameter gradient are bitwise those of a
  frozen copy of the adopting loop.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.core import TemporalExecutor
from repro.dataset import load_hungary_chickenpox
from repro.device import Device, use_device
from repro.tensor import Tensor, functional as F, init
from repro.train import (
    BaselineTrainer,
    PyGTNodeRegressor,
    STGraphNodeRegressor,
    STGraphTrainer,
    evaluate_regression,
)

T, L, LAGS, HIDDEN = 12, 4, 4, 8
SYSTEMS = ("stgraph", "pygt")


@pytest.fixture(scope="module")
def ds():
    return load_hungary_chickenpox(lags=LAGS, scale=1.0, num_timestamps=T)


def _trainer(system, ds):
    init.set_seed(0)
    if system == "stgraph":
        return STGraphTrainer(STGraphNodeRegressor(LAGS, HIDDEN), ds.build_graph(), sequence_length=L)
    return BaselineTrainer(PyGTNodeRegressor(LAGS, HIDDEN), ds.to_pygt_signal().edge_index, sequence_length=L)


def _accumulate(total, loss):
    return loss if total is None else F.add(total, loss)


def _adopting_epoch(trainer, features, targets):
    """The loop as it was: every step wraps the host array as
    ``Tensor(features[t])``, which tracks the dataset's own buffer."""
    executor = getattr(trainer, "executor", None)
    epoch_loss = 0.0
    for start in range(0, len(features), L):
        trainer.optimizer.zero_grad()
        state, total = None, None
        for t in range(start, min(start + L, len(features))):
            if executor is None:
                pred, state = trainer.model.step(trainer.edge_indices, Tensor(features[t]), state)
            else:
                executor.begin_timestamp(t)
                pred, state = trainer.model.step(executor, Tensor(features[t]), state)
            total = _accumulate(total, F.mse_loss(pred, targets[t]))
        if executor is not None:
            executor.end_sequence_forward()
        total.backward()
        if executor is not None:
            executor.check_drained()
        trainer.optimizer.step()
        epoch_loss += total.item()
    return epoch_loss


class _Ledger:
    """Records every base the device tracks and, at each upload, how many
    uploaded copies are alive (the upload's own included)."""

    def __init__(self, device: Device) -> None:
        self.bases: list[weakref.ref] = []
        self.copies: list[weakref.ref] = []
        self.live_at_upload: list[int] = []
        tracker, alloc = device.tracker, device.alloc
        track, upload = tracker.track, alloc.upload

        def tracking(array, tag=""):
            self.bases.append(weakref.ref(array if array.base is None else array.base))
            return track(array, tag)

        def uploading(host, tag=""):
            copy = upload(host, tag)
            self.copies.append(weakref.ref(copy))
            self.live_at_upload.append(sum(ref() is not None for ref in self.copies))
            return copy

        tracker.track = tracking
        alloc.upload = uploading
        self._tracker = tracker

    def live_bases(self) -> list[np.ndarray]:
        live = {id(b): b for b in (ref() for ref in self.bases) if b is not None}
        return [b for key, b in live.items() if key in self._tracker._tracked_bases]


def _run(system, ds, features, epochs=2, loop="trainer"):
    """``epochs`` epochs on a fresh device; the ``tensor`` peak is the
    last epoch's (every input of the adopting loop is resident by then)."""
    device = Device(name="step-inputs")
    with use_device(device):
        ledger = _Ledger(device)
        trainer = _trainer(system, ds)
        losses = []
        for epoch in range(epochs):
            if epoch == epochs - 1:
                device.tracker.reset_peak()
            if loop == "trainer":
                losses.append(trainer.train_epoch(features, ds.targets))
            else:
                losses.append(_adopting_epoch(trainer, features, ds.targets))
        tensor_peak = device.tracker.peak_bytes_by_tag()["tensor"]
        return trainer, ledger, losses, tensor_peak


def _shares_dataset_memory(bases, features):
    return [b.shape for b in bases if any(np.shares_memory(b, f) for f in features)]


@pytest.mark.parametrize("system", SYSTEMS)
def test_no_live_record_shares_memory_with_the_dataset(system, ds):
    _, ledger, _, _ = _run(system, ds, ds.features)
    assert _shares_dataset_memory(ledger.live_bases(), ds.features) == []
    # the check sees a wrapped input: the adopting loop leaves all T tracked
    _, adopting, _, _ = _run(system, ds, ds.features, loop="adopting")
    assert len(_shares_dataset_memory(adopting.live_bases(), ds.features)) == T


@pytest.mark.parametrize("system", SYSTEMS)
def test_tensor_peak_holds_at_most_a_sequence_of_inputs(system, ds):
    nbytes = ds.features[0].nbytes
    _, ledger, _, distinct_peak = _run(system, ds, ds.features)
    assert len(ledger.copies) == 2 * T  # each input once an epoch
    assert max(ledger.live_at_upload) == L
    _, _, _, shared_peak = _run(system, ds, [ds.features[0]] * T)
    assert distinct_peak <= shared_peak + (L - 1) * nbytes


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_shared_input_is_uploaded_once_per_sequence(system, ds):
    shared = [ds.features[0]] * T
    _, ledger, _, peak = _run(system, ds, shared)
    assert len(ledger.copies) == 2 * (T // L)
    assert max(ledger.live_at_upload) == 1
    _, _, _, adopting_peak = _run(system, ds, shared, loop="adopting")
    assert peak == adopting_peak


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("shared", [False, True])
def test_losses_and_gradients_equal_the_adopting_loop(system, shared, ds):
    features = [ds.features[0]] * T if shared else ds.features
    trainer, _, losses, _ = _run(system, ds, features)
    frozen, _, frozen_losses, _ = _run(system, ds, features, loop="adopting")
    assert [x.hex() for x in losses] == [x.hex() for x in frozen_losses]
    params = dict(trainer.model.named_parameters())
    for name, p in frozen.model.named_parameters():
        assert params[name].data.tobytes() == p.data.tobytes(), name
        assert params[name].grad.tobytes() == p.grad.tobytes(), name


def test_evaluation_keeps_one_input_and_none_of_the_dataset(ds):
    device = Device(name="step-inputs-eval")
    with use_device(device):
        ledger = _Ledger(device)
        init.set_seed(0)
        graph = ds.build_graph()
        metrics = evaluate_regression(
            STGraphNodeRegressor(LAGS, HIDDEN), TemporalExecutor(graph), ds.features, ds.targets,
        )
        assert np.isfinite(metrics["mse"])
        assert len(ledger.copies) == T
        assert max(ledger.live_at_upload) == 1  # no_grad: nothing saves a step's input
        assert _shares_dataset_memory(ledger.live_bases(), ds.features) == []
