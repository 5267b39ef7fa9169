"""Temporal splits, early stopping, evaluation rollout."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset import load_hungary_chickenpox, load_sx_mathoverflow
from repro.tensor import init, nn
from repro.train import (
    EarlyStopping,
    STGraphNodeRegressor,
    STGraphTrainer,
    evaluate_regression,
    temporal_train_test_split,
)


def test_split_is_chronological():
    feats = [np.full((2, 2), t, dtype=np.float32) for t in range(10)]
    targs = [np.full((2, 1), t, dtype=np.float32) for t in range(10)]
    tr_x, te_x, tr_y, te_y = temporal_train_test_split(feats, targs, train_ratio=0.7)
    assert len(tr_x) == 7 and len(te_x) == 3
    assert tr_x[-1][0, 0] == 6 and te_x[0][0, 0] == 7  # no shuffling
    assert tr_y[-1][0, 0] == 6


def test_split_without_targets():
    feats = [np.zeros((2, 2)) for _ in range(5)]
    tr, te = temporal_train_test_split(feats, train_ratio=0.6)
    assert len(tr) == 3 and len(te) == 2


def test_split_always_leaves_both_sides():
    feats = [np.zeros((1, 1)) for _ in range(3)]
    tr, te = temporal_train_test_split(feats, train_ratio=0.99)
    assert len(tr) >= 1 and len(te) >= 1


def test_split_bad_ratio():
    with pytest.raises(ValueError):
        temporal_train_test_split([np.zeros(1)], train_ratio=1.5)


def test_split_length_mismatch():
    with pytest.raises(ValueError):
        temporal_train_test_split([np.zeros(1)] * 3, [np.zeros(1)] * 2)


def test_early_stopping_triggers():
    es = EarlyStopping(patience=3)
    assert not es.step(1.0)
    assert not es.step(0.9)
    assert not es.step(0.95)
    assert not es.step(0.95)
    assert es.step(0.95)  # third epoch without improvement
    assert es.best_loss == pytest.approx(0.9)


def test_early_stopping_min_delta():
    es = EarlyStopping(patience=2, min_delta=0.1)
    es.step(1.0)
    assert not es.step(0.95)  # improvement below min_delta doesn't reset
    assert es.step(0.94)
    assert es.best_loss == pytest.approx(1.0)


def test_early_stopping_restores_best_weights():
    lin = nn.Linear(2, 2)
    es = EarlyStopping(patience=5)
    es.step(1.0, lin)
    best = lin.weight.data.copy()
    lin.weight.data[:] = 99.0
    es.step(2.0, lin)  # worse: best state unchanged
    es.restore_best(lin)
    assert np.allclose(lin.weight.data, best)


def test_early_stopping_restore_without_model_raises():
    es = EarlyStopping()
    es.step(1.0)
    with pytest.raises(RuntimeError):
        es.restore_best(nn.Linear(1, 1))


def test_evaluate_regression_rollout():
    ds = load_hungary_chickenpox(lags=4, scale=1.0, num_timestamps=20)
    tr_x, te_x, tr_y, te_y = temporal_train_test_split(ds.features, ds.targets, 0.75)
    init.set_seed(0)
    model = STGraphNodeRegressor(4, 8)
    trainer = STGraphTrainer(model, ds.build_graph(), lr=1e-2)
    trainer.train(tr_x, tr_y, epochs=10)
    metrics = evaluate_regression(model, trainer.executor, te_x, te_y, start_timestamp=len(tr_x))
    assert set(metrics) == {"mse", "rmse", "mae"}
    assert metrics["rmse"] == pytest.approx(np.sqrt(metrics["mse"]), rel=1e-6)
    assert all(np.isfinite(v) for v in metrics.values())
    # training should beat the trivial zero predictor on standardized data
    baseline_mse = float(np.mean([np.mean(y**2) for y in te_y]))
    assert metrics["mse"] < baseline_mse * 1.5


@pytest.mark.parametrize("build", ["build_gpma", "build_naive"])
def test_train_evaluate_train_on_a_dynamic_graph(build):
    """The evaluation rollout runs under ``no_grad`` and positions with
    ``begin_inference``: it pushes no Graph Stack entry, so the next
    training epoch on a DTDG-backed graph starts from a drained stack."""
    ds = load_sx_mathoverflow(scale=0.01, feature_size=4, max_snapshots=6)
    targets = [x[:, :1].copy() for x in ds.features]
    init.set_seed(0)
    model = STGraphNodeRegressor(4, 8)
    trainer = STGraphTrainer(model, getattr(ds, build)(), lr=1e-2)
    first = trainer.train_epoch(ds.features, targets)
    metrics = evaluate_regression(model, trainer.executor, ds.features, targets)
    second = trainer.train_epoch(ds.features, targets)
    assert np.isfinite([first, second, *metrics.values()]).all()
