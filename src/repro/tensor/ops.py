"""Differentiable op implementations (:class:`Function` subclasses).

Each op follows the classic tape pattern: ``apply`` computes the forward
result and *saves whatever its backward needs* on the context instance, and
the instance becomes a tape node linked to the nodes that produced its
inputs, never to the input tensors themselves.  The saved arrays, *and only
those*, stay referenced (and therefore device-resident) until ``backward()``
consumes the node; an input that no backward reads is freed as soon as user
code drops it, as in PyTorch, where graph edges point at ``grad_fn`` nodes.
What each op saves is the backend behaviour the paper's State Stack
optimization competes with, so it is load-bearing for the memory
experiments, not an implementation accident.

Broadcasting ops reverse broadcasting in backward via :func:`_unbroadcast`.
"""

from __future__ import annotations

import itertools
from typing import Any

import numpy as np

from repro.tensor.tensor import Tensor, is_grad_enabled

__all__ = ["Function"]

#: Tape order: a node's ``seq`` is drawn when it is attached to its output,
#: so ``Tensor.backward`` can unwind the forward pass in exact LIFO order.
_node_seq = itertools.count()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the target shape.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def stable_sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic sigmoid that never exponentiates a positive number.

    ``exp(min(a, 0)) / (1 + exp(-|a|))`` is ``1 / (1 + e^-a)`` where
    ``a >= 0`` and ``e^a / (1 + e^a)`` elsewhere: the two-branch formula with
    neither a mask nor a select (the numerator is exactly 1 on the first
    branch), bit for bit the masked form in float32 and float64.  Shared by
    the tape op and the generated kernels' ``ew_sigmoid`` so both produce the
    same bits.
    """
    return np.exp(np.minimum(a, 0)) / (1 + np.exp(-np.abs(a)))


def _coerce(value: Any) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float32), _track=False)


class Function:
    """Base class for differentiable operations, and the tape node protocol.

    Subclasses implement :meth:`forward` (returning an ndarray) and
    :meth:`backward` (returning one grad ndarray — or ``None`` — per input).
    A node attached to the tape keeps its ``parents``, ``saved``,
    ``needs_input_grad`` and its output's ``seq`` and ``shape``, nothing else
    of the forward pass; ``Tensor.backward`` sets ``parents`` to ``None`` and
    drops ``saved`` when it consumes the node.
    """

    def __init__(self) -> None:
        #: per input: the node that produced it, the input itself if it is a
        #: leaf that requires grad, else ``None`` (a constant).
        self.parents: tuple[Function | Tensor | None, ...] | None = ()
        self.saved: tuple[Any, ...] = ()
        #: per input, whether ``Tensor.backward`` will keep its gradient (decided
        #: at apply time); ``backward`` may return ``None`` where it will not.
        self.needs_input_grad: tuple[bool, ...] = ()

    def save_for_backward(self, *items: Any) -> None:
        """Stash values the backward pass will need (kept until consumed)."""
        self.saved = items

    def attach(self, out: Tensor, inputs: tuple[Tensor, ...]) -> bool:
        """Record this node as ``out``'s producer if any input needs a gradient.

        Returns whether it did (never under ``no_grad``).  An input whose
        node a backward already consumed counts as a constant.
        """
        if not is_grad_enabled():
            return False
        parents = []
        for t in inputs:
            parent = t._ctx
            if parent is None or parent.parents is None:
                parent = t if t.requires_grad else None
            parents.append(parent)
        needs = tuple(p is not None for p in parents)
        if not any(needs):
            return False
        self.parents = tuple(parents)
        self.needs_input_grad = needs
        self.seq = next(_node_seq)
        self.shape = out.data.shape
        out._ctx = self
        return True

    # subclasses override -------------------------------------------------
    def forward(self, *arrays: np.ndarray, **kwargs: Any) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray | None, ...] | np.ndarray | None:
        """Return one gradient (or None) per input, given the output gradient."""
        raise NotImplementedError

    # ---------------------------------------------------------------------
    @classmethod
    def apply(cls, *args: Any, **kwargs: Any) -> Tensor:
        """Run the op on coerced inputs and record it on the tape if needed."""
        ctx = cls()
        tensors = tuple(_coerce(a) for a in args)
        out = Tensor(ctx.forward(*(t.data for t in tensors), **kwargs))
        ctx.attach(out, tensors)
        return out


# ---------------------------------------------------------------------------
# Elementwise binary ops
# ---------------------------------------------------------------------------
class Add(Function):
    """Broadcasting elementwise sum."""
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._shapes = (a.shape, b.shape)
        return a + b

    def backward(self, grad: np.ndarray):
        sa, sb = self._shapes
        return _unbroadcast(grad, sa), _unbroadcast(grad, sb)


class Sub(Function):
    """Broadcasting elementwise difference."""
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._shapes = (a.shape, b.shape)
        return a - b

    def backward(self, grad: np.ndarray):
        sa, sb = self._shapes
        return _unbroadcast(grad, sa), _unbroadcast(-grad, sb)


class Mul(Function):
    """Broadcasting elementwise product (saves both operands)."""
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a * b

    def backward(self, grad: np.ndarray):
        a, b = self.saved
        return _unbroadcast(grad * b, a.shape), _unbroadcast(grad * a, b.shape)


class Div(Function):
    """Broadcasting elementwise quotient."""
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a / b

    def backward(self, grad: np.ndarray):
        a, b = self.saved
        ga = _unbroadcast(grad / b, a.shape)
        gb = _unbroadcast(-grad * a / (b * b), b.shape)
        return ga, gb


class Maximum(Function):
    """Elementwise max; ties send the gradient to the first operand."""
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return np.maximum(a, b)

    def backward(self, grad: np.ndarray):
        a, b = self.saved
        mask = (a >= b).astype(grad.dtype)
        return _unbroadcast(grad * mask, a.shape), _unbroadcast(grad * (1.0 - mask), b.shape)


# ---------------------------------------------------------------------------
# Elementwise unary ops
# ---------------------------------------------------------------------------
class Neg(Function):
    """Elementwise negation."""
    def forward(self, a: np.ndarray) -> np.ndarray:
        return -a

    def backward(self, grad: np.ndarray):
        return (-grad,)


class Pow(Function):
    """Power with a constant exponent."""
    def forward(self, a: np.ndarray, exponent: float = 2.0) -> np.ndarray:
        self.exponent = float(exponent)
        self.save_for_backward(a)
        return a**self.exponent

    def backward(self, grad: np.ndarray):
        (a,) = self.saved
        return (grad * self.exponent * a ** (self.exponent - 1.0),)


class Exp(Function):
    """Exponential (backward reuses the output)."""
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad: np.ndarray):
        (out,) = self.saved
        return (grad * out,)


class Log(Function):
    """Natural logarithm."""
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.save_for_backward(a)
        return np.log(a)

    def backward(self, grad: np.ndarray):
        (a,) = self.saved
        return (grad / a,)


class Sqrt(Function):
    """Square root (backward reuses the output)."""
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.sqrt(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad: np.ndarray):
        (out,) = self.saved
        return (grad * 0.5 / out,)


class Sigmoid(Function):
    """Numerically stable logistic sigmoid."""
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = stable_sigmoid(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad: np.ndarray):
        (out,) = self.saved
        return (grad * out * (1.0 - out),)


class Tanh(Function):
    """Hyperbolic tangent (backward reuses the output)."""
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.tanh(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad: np.ndarray):
        (out,) = self.saved
        return (grad * (1.0 - out * out),)


class ReLU(Function):
    """Rectified linear unit (saves the sign mask)."""
    def forward(self, a: np.ndarray) -> np.ndarray:
        mask = a > 0
        self.save_for_backward(mask)
        return a * mask

    def backward(self, grad: np.ndarray):
        (mask,) = self.saved
        return (grad * mask,)


class LeakyReLU(Function):
    """Leaky ReLU with configurable negative slope."""
    def forward(self, a: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
        self.slope = float(negative_slope)
        mask = a > 0
        self.save_for_backward(mask)
        return np.where(mask, a, self.slope * a)

    def backward(self, grad: np.ndarray):
        (mask,) = self.saved
        return (np.where(mask, grad, self.slope * grad),)


class Clip(Function):
    """Clamp with zero gradient outside the bounds."""
    def forward(self, a: np.ndarray, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
        self.save_for_backward((a >= lo) & (a <= hi))
        return np.clip(a, lo, hi)

    def backward(self, grad: np.ndarray):
        (mask,) = self.saved
        return (grad * mask,)


class Dropout(Function):
    """Inverted dropout with a seedable mask."""
    def forward(self, a: np.ndarray, p: float = 0.5, seed: int | None = None) -> np.ndarray:
        rng = np.random.default_rng(seed)
        keep = 1.0 - p
        mask = (rng.random(a.shape) < keep).astype(a.dtype) / max(keep, 1e-12)
        self.save_for_backward(mask)
        return a * mask

    def backward(self, grad: np.ndarray):
        (mask,) = self.saved
        return (grad * mask,)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------
class MatMul(Function):
    """Dense matrix product."""
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a @ b

    def backward(self, grad: np.ndarray):
        a, b = self.saved
        need_a, need_b = self.needs_input_grad
        ga = gb = None
        if need_a:
            ga = (grad @ b.T if b.ndim == 2 else np.outer(grad, b)).reshape(a.shape)
        if need_b:
            gb = (a.T @ grad if a.ndim == 2 else np.outer(a, grad)).reshape(b.shape)
        return ga, gb


class Transpose(Function):
    """2-D transpose."""
    def forward(self, a: np.ndarray) -> np.ndarray:
        return a.T

    def backward(self, grad: np.ndarray):
        return (grad.T,)


# ---------------------------------------------------------------------------
# Shape ops
# ---------------------------------------------------------------------------
class Reshape(Function):
    """Shape change; backward restores the original shape."""
    def forward(self, a: np.ndarray, shape: tuple[int, ...] = ()) -> np.ndarray:
        self._orig = a.shape
        return a.reshape(shape)

    def backward(self, grad: np.ndarray):
        return (grad.reshape(self._orig),)


class Concat(Function):
    """Concatenation along an axis; backward splits the grad."""
    def forward(self, *arrays: np.ndarray, axis: int = 0) -> np.ndarray:
        self.axis = axis
        self._sizes = [a.shape[axis] for a in arrays]
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad: np.ndarray):
        splits = np.cumsum(self._sizes)[:-1]
        return tuple(np.ascontiguousarray(g) for g in np.split(grad, splits, axis=self.axis))


class Stack(Function):
    """Stack along a new axis."""
    def forward(self, *arrays: np.ndarray, axis: int = 0) -> np.ndarray:
        self.axis = axis
        return np.stack(arrays, axis=axis)

    def backward(self, grad: np.ndarray):
        parts = np.split(grad, grad.shape[self.axis], axis=self.axis)
        return tuple(np.ascontiguousarray(p.squeeze(self.axis)) for p in parts)


class GetItem(Function):
    """Indexing/slicing; backward scatter-adds into the source shape."""
    def forward(self, a: np.ndarray, idx: Any = None) -> np.ndarray:
        self.idx = idx
        self._shape = a.shape
        out = a[idx]
        return np.ascontiguousarray(out)

    def backward(self, grad: np.ndarray):
        out = np.zeros(self._shape, dtype=grad.dtype)
        np.add.at(out, self.idx, grad)
        return (out,)


# ---------------------------------------------------------------------------
# Gather / scatter (the edge-parallel primitives the PyG-T baseline uses)
# ---------------------------------------------------------------------------
class IndexSelect(Function):
    """``out[e] = a[index[e]]`` — the per-edge feature *gather*.

    Forward materializes an ``E×F`` array; backward scatter-adds the grads
    back to the ``N×F`` source.  The ``E×F`` output is what the paper calls
    PyG's "duplication of node features".
    """

    def forward(self, a: np.ndarray, index: np.ndarray = None) -> np.ndarray:
        self.index = index
        self._n = a.shape[0]
        return np.ascontiguousarray(a[index])

    def backward(self, grad: np.ndarray):
        out = np.zeros((self._n,) + grad.shape[1:], dtype=grad.dtype)
        np.add.at(out, self.index, grad)
        return (out,)


class ScatterAdd(Function):
    """``out[index[e]] += a[e]`` over ``num_targets`` rows — the edge reduce."""

    def forward(self, a: np.ndarray, index: np.ndarray = None, num_targets: int = 0) -> np.ndarray:
        self.index = index
        out = np.zeros((num_targets,) + a.shape[1:], dtype=a.dtype)
        np.add.at(out, index, a)
        return out

    def backward(self, grad: np.ndarray):
        return (np.ascontiguousarray(grad[self.index]),)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------
class Sum(Function):
    """Reduction sum; backward broadcasts the grad."""
    def forward(self, a: np.ndarray, axis: int | None = None, keepdims: bool = False) -> np.ndarray:
        self._shape = a.shape
        self.axis = axis
        self.keepdims = keepdims
        out = a.sum(axis=axis, keepdims=keepdims)
        return np.asarray(out, dtype=a.dtype)

    def backward(self, grad: np.ndarray):
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        return (np.broadcast_to(grad, self._shape).copy(),)


class Mean(Function):
    """Reduction mean."""
    def forward(self, a: np.ndarray, axis: int | None = None, keepdims: bool = False) -> np.ndarray:
        self._shape = a.shape
        self.axis = axis
        self.keepdims = keepdims
        if axis is None:
            self._count = a.size
        else:
            self._count = a.shape[axis]
        out = a.mean(axis=axis, keepdims=keepdims)
        return np.asarray(out, dtype=a.dtype)

    def backward(self, grad: np.ndarray):
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        return (np.broadcast_to(grad, self._shape).copy() / self._count,)


class Max(Function):
    """Reduction max; ties share the gradient equally."""
    def forward(self, a: np.ndarray, axis: int | None = None, keepdims: bool = False) -> np.ndarray:
        self._shape = a.shape
        self.axis = axis
        self.keepdims = keepdims
        out = a.max(axis=axis, keepdims=keepdims)
        full = a.max(axis=axis, keepdims=True) if axis is not None else a.max()
        self.save_for_backward(a == full)
        return np.asarray(out, dtype=a.dtype)

    def backward(self, grad: np.ndarray):
        (mask,) = self.saved
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        counts = mask.sum(axis=self.axis, keepdims=True) if self.axis is not None else mask.sum()
        return (np.broadcast_to(grad, self._shape) * mask / counts,)


class Softmax(Function):
    """Softmax along an axis with the standard VJP."""
    def forward(self, a: np.ndarray, axis: int = -1) -> np.ndarray:
        self.axis = axis
        shifted = a - a.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)
        self.save_for_backward(out)
        return out

    def backward(self, grad: np.ndarray):
        (out,) = self.saved
        dot = (grad * out).sum(axis=self.axis, keepdims=True)
        return (out * (grad - dot),)


class Clone(Function):
    """Identity copy."""
    def forward(self, a: np.ndarray) -> np.ndarray:
        return a.copy()

    def backward(self, grad: np.ndarray):
        return (grad,)
