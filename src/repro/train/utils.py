"""Training utilities: step inputs, temporal splits, early stopping, evaluation."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.executor import TemporalExecutor
from repro.device import current_device
from repro.tensor.nn import Module
from repro.tensor.tensor import Tensor, no_grad

__all__ = ["StepInputs", "temporal_train_test_split", "EarlyStopping", "evaluate_regression"]


class StepInputs:
    """Device copies of a run's host inputs: ``inputs[t]`` is ``features[t]``.

    A step's input is uploaded with :meth:`DeviceAllocator.upload` (the
    simulated host-to-device copy) and lives as long as something reads it:
    the step, and then the tape, whose ``MatMul`` saves it for the weight
    gradient until the sequence's backward consumes the node.  A later step
    that passes the same host array while that copy is alive gets the same
    copy, so an input every timestamp shares is uploaded once per sequence;
    under ``no_grad`` nothing saves it, and it is freed after its step.  The
    dataset's own arrays are never tracked (wrapping one as ``Tensor(x)``
    would count it for the dataset's lifetime).
    """

    def __init__(self, features: Sequence[np.ndarray]) -> None:
        self._features = features
        self._alloc = current_device().alloc
        # id(host) -> (host, weak ref to its live copy); the entry keeps the
        # host alive, so no other array can take its id.
        self._copies: dict[int, tuple[np.ndarray, weakref.ref]] = {}

    def __getitem__(self, t: int) -> Tensor:
        host = self._features[t]
        entry = self._copies.get(id(host))
        data = None if entry is None else entry[1]()
        if data is not None:
            return Tensor(data)
        x = Tensor(self._alloc.upload(host, tag="tensor"))
        self._copies[id(host)] = (host, weakref.ref(x.data))
        return x


def temporal_train_test_split(
    features: Sequence[np.ndarray],
    targets: Sequence[np.ndarray] | None = None,
    train_ratio: float = 0.8,
) -> tuple:
    """Chronological split: the first ``train_ratio`` of timestamps train,
    the rest test (shuffling would leak the future — the PyG-T convention).

    Returns ``(train_features, test_features)`` or the 4-tuple with targets.
    """
    if not 0.0 < train_ratio < 1.0:
        raise ValueError(f"train_ratio must be in (0, 1), got {train_ratio}")
    total = len(features)
    split = max(1, min(total - 1, int(round(total * train_ratio))))
    if targets is None:
        return list(features[:split]), list(features[split:])
    if len(targets) != total:
        raise ValueError("features/targets length mismatch")
    return (
        list(features[:split]),
        list(features[split:]),
        list(targets[:split]),
        list(targets[split:]),
    )


@dataclass
class EarlyStopping:
    """Stop when the monitored loss hasn't improved for ``patience`` epochs.

    Keeps the best state dict so training can be rolled back.
    """

    patience: int = 10
    min_delta: float = 0.0

    def __post_init__(self) -> None:
        self.best_loss = float("inf")
        self.best_state: dict | None = None
        self.epochs_without_improvement = 0

    def step(self, loss: float, model: Module | None = None) -> bool:
        """Record an epoch; returns True when training should stop."""
        if loss < self.best_loss - self.min_delta:
            self.best_loss = loss
            self.epochs_without_improvement = 0
            if model is not None:
                self.best_state = model.state_dict()
        else:
            self.epochs_without_improvement += 1
        return self.epochs_without_improvement >= self.patience

    def restore_best(self, model: Module) -> None:
        """Load the best-seen parameters back into ``model``."""
        if self.best_state is None:
            raise RuntimeError("no best state recorded (pass the model to step())")
        model.load_state_dict(self.best_state)


def evaluate_regression(
    model: Module,
    executor: TemporalExecutor,
    features: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    start_timestamp: int = 0,
) -> dict[str, float]:
    """Roll the model over held-out timestamps; returns MSE/MAE/RMSE."""
    from repro.train.metrics import mae, rmse

    errs_sq, errs_abs = [], []
    inputs = StepInputs(features)
    with no_grad():
        state = None
        for offset, (_, y) in enumerate(zip(features, targets)):
            executor.begin_inference(start_timestamp + offset)
            pred, state = model.step(executor, inputs[offset], state)
            p = pred.numpy()
            errs_sq.append(float(((p - y) ** 2).mean()))
            errs_abs.append(mae(p, y))
    mse = float(np.mean(errs_sq))
    return {"mse": mse, "rmse": float(np.sqrt(mse)), "mae": float(np.mean(errs_abs))}
