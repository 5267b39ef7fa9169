"""Loss criteria: MSE and the paper's BCE-with-logits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F


def test_mse_value(rng):
    pred = rng.standard_normal((4, 3)).astype(np.float32)
    target = rng.standard_normal((4, 3)).astype(np.float32)
    loss = F.mse_loss(Tensor(pred), target)
    assert loss.item() == pytest.approx(((pred - target) ** 2).mean(), abs=1e-6)


def test_mse_zero_at_target(rng):
    x = rng.standard_normal((3, 3)).astype(np.float32)
    assert F.mse_loss(Tensor(x), x).item() == 0.0


def test_mse_grad(rng):
    pred = rng.standard_normal((4, 3)).astype(np.float32)
    target = rng.standard_normal((4, 3)).astype(np.float32)
    t = Tensor(pred, requires_grad=True)
    F.mse_loss(t, target).backward()
    assert np.allclose(t.grad, 2 * (pred - target) / pred.size, atol=1e-6)


def test_bce_value_matches_reference(rng):
    logits = rng.standard_normal(50).astype(np.float32)
    labels = (rng.random(50) > 0.5).astype(np.float32)
    loss = F.bce_with_logits_loss(Tensor(logits), labels)
    p = 1 / (1 + np.exp(-logits.astype(np.float64)))
    ref = -(labels * np.log(p) + (1 - labels) * np.log(1 - p)).mean()
    assert loss.item() == pytest.approx(ref, abs=1e-5)


def test_bce_extreme_logits_stable():
    logits = Tensor(np.array([-1000.0, 1000.0], dtype=np.float32), requires_grad=True)
    labels = np.array([0.0, 1.0], dtype=np.float32)
    loss = F.bce_with_logits_loss(logits, labels)
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(0.0, abs=1e-5)
    loss.backward()
    assert np.all(np.isfinite(logits.grad))


def test_bce_wrong_confident_prediction_penalized():
    loss_wrong = F.bce_with_logits_loss(
        Tensor(np.array([10.0], dtype=np.float32)), np.array([0.0], dtype=np.float32)
    )
    loss_right = F.bce_with_logits_loss(
        Tensor(np.array([10.0], dtype=np.float32)), np.array([1.0], dtype=np.float32)
    )
    assert loss_wrong.item() > 9.0
    assert loss_right.item() < 1e-3


def test_bce_grad_is_sigmoid_minus_label(rng):
    logits = rng.standard_normal(20).astype(np.float32)
    labels = (rng.random(20) > 0.5).astype(np.float32)
    t = Tensor(logits, requires_grad=True)
    F.bce_with_logits_loss(t, labels).backward()
    sig = 1 / (1 + np.exp(-logits))
    assert np.allclose(t.grad, (sig - labels) / 20, atol=1e-5)


def test_bce_backward_sigmoid_is_the_one_sigmoid():
    """The BCE gradient uses the tape's sigmoid: for |x| <= 60 (and +-0, NaN)
    its bits are those of the clipped two-branch formula it replaced, and
    below -60 it is the true sigmoid, not sigmoid(-60) = 8.76e-27."""
    rng = np.random.default_rng(0)
    x = np.concatenate([
        rng.uniform(-60.0, 60.0, 100_000),
        np.linspace(-60.0, 60.0, 20_001),
        [0.0, -0.0, np.nan, 60.0, -60.0],
    ]).astype(np.float32)
    t = Tensor(x, requires_grad=True)
    F.bce_with_logits_loss(t, np.zeros_like(x)).backward()
    clipped = np.clip(x, -60, 60)
    old_sig = np.where(x >= 0, 1.0 / (1.0 + np.exp(-clipped)), np.exp(clipped) / (1.0 + np.exp(clipped)))
    assert t.grad.tobytes() == (np.float32(1.0) * old_sig / x.size).astype(np.float32).tobytes()
    for v in (-61.0, -80.0, -100.0):
        t = Tensor(np.array([v], dtype=np.float32), requires_grad=True)
        F.bce_with_logits_loss(t, np.zeros(1, dtype=np.float32)).backward()
        assert t.grad[0] == pytest.approx(np.exp(v), rel=0.05, abs=0)  # float32 subnormals near 1e-44


def test_bce_balanced_at_zero_logits():
    logits = Tensor(np.zeros(10, dtype=np.float32))
    labels = np.ones(10, dtype=np.float32)
    assert F.bce_with_logits_loss(logits, labels).item() == pytest.approx(np.log(2), abs=1e-6)


def test_l1_loss(rng):
    pred = rng.standard_normal(10).astype(np.float32)
    target = rng.standard_normal(10).astype(np.float32)
    loss = F.l1_loss(Tensor(pred), target)
    assert loss.item() == pytest.approx(np.abs(pred - target).mean(), abs=1e-3)
