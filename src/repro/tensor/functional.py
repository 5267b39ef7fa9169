"""User-facing differentiable functions and loss criteria.

Thin wrappers over the :mod:`repro.tensor.ops` Function classes, plus the
two losses the paper's benchmarks use:

* :func:`mse_loss` — node-classification/regression on the static-temporal
  datasets ("MSE as the loss criterion").
* :func:`bce_with_logits_loss` — link prediction on the DTDG datasets
  ("Binary Cross Entropy Loss with Logits").
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.tensor import ops
from repro.tensor.tensor import Tensor

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow", "sqrt", "exp", "log",
    "matmul", "transpose", "reshape", "getitem", "concat", "stack",
    "index_select", "scatter_add", "sum", "mean", "max", "maximum",
    "sigmoid", "tanh", "relu", "leaky_relu", "softmax", "clip", "dropout",
    "clone", "mse_loss", "bce_with_logits_loss", "cross_entropy_loss",
    "l1_loss", "zeros", "ones",
]


def add(a: Any, b: Any) -> Tensor:
    """Elementwise sum with broadcasting."""
    return ops.Add.apply(a, b)


def sub(a: Any, b: Any) -> Tensor:
    """Elementwise difference with broadcasting."""
    return ops.Sub.apply(a, b)


def mul(a: Any, b: Any) -> Tensor:
    """Elementwise product with broadcasting."""
    return ops.Mul.apply(a, b)


def div(a: Any, b: Any) -> Tensor:
    """Elementwise quotient with broadcasting."""
    return ops.Div.apply(a, b)


def neg(a: Any) -> Tensor:
    """Elementwise negation."""
    return ops.Neg.apply(a)


def pow(a: Any, exponent: float) -> Tensor:  # noqa: A001 - mirrors torch.pow
    """Elementwise power with a constant exponent."""
    return ops.Pow.apply(a, exponent=exponent)


def sqrt(a: Any) -> Tensor:
    """Elementwise square root."""
    return ops.Sqrt.apply(a)


def exp(a: Any) -> Tensor:
    """Elementwise exponential."""
    return ops.Exp.apply(a)


def log(a: Any) -> Tensor:
    """Elementwise natural logarithm."""
    return ops.Log.apply(a)


def matmul(a: Any, b: Any) -> Tensor:
    """Matrix product ``a @ b``."""
    return ops.MatMul.apply(a, b)


def transpose(a: Any) -> Tensor:
    """2-D transpose."""
    return ops.Transpose.apply(a)


def reshape(a: Any, shape: tuple[int, ...]) -> Tensor:
    """View with a new shape (-1 infers one dimension)."""
    return ops.Reshape.apply(a, shape=tuple(shape))


def getitem(a: Any, idx: Any) -> Tensor:
    """Differentiable indexing/slicing (gather on int arrays)."""
    return ops.GetItem.apply(a, idx=idx)


def concat(tensors: Sequence[Any], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    return ops.Concat.apply(*tensors, axis=axis)


def stack(tensors: Sequence[Any], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    return ops.Stack.apply(*tensors, axis=axis)


def index_select(a: Any, index: np.ndarray) -> Tensor:
    """Per-edge gather: ``out[e] = a[index[e]]`` (materializes E×F)."""
    return ops.IndexSelect.apply(a, index=np.asarray(index, dtype=np.int64))


def scatter_add(a: Any, index: np.ndarray, num_targets: int) -> Tensor:
    """Per-edge reduce: ``out[index[e]] += a[e]`` into ``num_targets`` rows."""
    return ops.ScatterAdd.apply(a, index=np.asarray(index, dtype=np.int64), num_targets=int(num_targets))


def sum(a: Any, axis: int | None = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum over all elements or one axis."""
    return ops.Sum.apply(a, axis=axis, keepdims=keepdims)


def mean(a: Any, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Mean over all elements or one axis."""
    return ops.Mean.apply(a, axis=axis, keepdims=keepdims)


def max(a: Any, axis: int | None = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Maximum over all elements or one axis (subgradient on ties)."""
    return ops.Max.apply(a, axis=axis, keepdims=keepdims)


def maximum(a: Any, b: Any) -> Tensor:
    """Elementwise maximum of two tensors."""
    return ops.Maximum.apply(a, b)


def sigmoid(a: Any) -> Tensor:
    """Numerically stable logistic sigmoid."""
    return ops.Sigmoid.apply(a)


def tanh(a: Any) -> Tensor:
    """Hyperbolic tangent."""
    return ops.Tanh.apply(a)


def relu(a: Any) -> Tensor:
    """Rectified linear unit."""
    return ops.ReLU.apply(a)


def leaky_relu(a: Any, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU with configurable negative slope."""
    return ops.LeakyReLU.apply(a, negative_slope=negative_slope)


def softmax(a: Any, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (max-shifted for stability)."""
    return ops.Softmax.apply(a, axis=axis)


def clip(a: Any, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi] (zero gradient outside)."""
    return ops.Clip.apply(a, lo=lo, hi=hi)


def dropout(a: Any, p: float = 0.5, training: bool = True, seed: int | None = None) -> Tensor:
    """Inverted dropout; identity when not training or p<=0."""
    if not training or p <= 0.0:
        return a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=np.float32))
    return ops.Dropout.apply(a, p=p, seed=seed)


def clone(a: Any) -> Tensor:
    """Copy that participates in autodiff (gradient passes through)."""
    return ops.Clone.apply(a)


def zeros(shape: tuple[int, ...] | int, requires_grad: bool = False) -> Tensor:
    """Zero-filled float32 tensor."""
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(shape: tuple[int, ...] | int, requires_grad: bool = False) -> Tensor:
    """One-filled float32 tensor."""
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------
def mse_loss(pred: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error over all elements."""
    diff = sub(pred, target)
    return mean(mul(diff, diff))


def l1_loss(pred: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean absolute error (smoothed at 0 for differentiability)."""
    diff = sub(pred, target)
    return mean(sqrt(add(mul(diff, diff), 1e-12)))


class _BCEWithLogits(ops.Function):
    """Numerically stable BCE-with-logits.

    ``loss = max(x,0) - x*y + log(1 + exp(-|x|))`` averaged over elements,
    with the closed-form gradient ``sigmoid(x) - y`` to avoid intermediate
    blow-up — the same fused formulation PyTorch ships.
    """

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        self.save_for_backward(logits, targets)
        loss = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
        return np.asarray(loss.mean(), dtype=logits.dtype)

    def backward(self, grad: np.ndarray):
        logits, targets = self.saved
        g = grad * (ops.stable_sigmoid(logits) - targets) / logits.size
        return g.astype(logits.dtype), None


def bce_with_logits_loss(logits: Tensor, targets: Tensor | np.ndarray) -> Tensor:
    """Numerically stable binary cross-entropy on raw logits (the paper's DTDG criterion)."""
    return _BCEWithLogits.apply(logits, targets)


class _CrossEntropy(ops.Function):
    """Softmax cross-entropy over integer class labels.

    Fused log-sum-exp formulation with the closed-form gradient
    ``softmax(x) - onehot(y)`` (numerically stable, no intermediate
    softmax materialized on the tape).
    """

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        labels = labels.astype(np.int64).reshape(-1)
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1))
        picked = shifted[np.arange(len(labels)), labels]
        self.save_for_backward(shifted, labels)
        return np.asarray((lse - picked).mean(), dtype=logits.dtype)

    def backward(self, grad: np.ndarray):
        shifted, labels = self.saved
        e = np.exp(shifted)
        soft = e / e.sum(axis=1, keepdims=True)
        soft[np.arange(len(labels)), labels] -= 1.0
        return (grad * soft / len(labels)).astype(shifted.dtype), None


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy; ``labels`` are integer class ids."""
    labels = np.asarray(labels)
    if isinstance(logits, Tensor) and logits.ndim != 2:
        raise ValueError("cross_entropy_loss expects (N, C) logits")
    return _CrossEntropy.apply(logits, Tensor(labels.astype(np.float32), _track=False))
