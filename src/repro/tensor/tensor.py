"""Core :class:`Tensor` type and the reverse-mode tape.

Design notes
------------
* A ``Tensor`` owns a ``numpy.ndarray`` (``data``) registered with the
  active simulated device so the benchmark harness can measure residency.
  Wrapping an array adopts it (``DeviceAllocator.adopt``): its owning
  buffer is counted for that buffer's lifetime, so wrapping a dataset's
  array counts it for as long as the dataset lives.  Host data goes on
  the device through ``DeviceAllocator.upload`` (the training loops'
  ``repro.train.utils.StepInputs``), whose copy lives only while it is read.
* Ops are instances of :class:`repro.tensor.ops.Function`.  Applying one
  records it as ``_ctx`` on the output tensor; the tape is the graph of those
  nodes, each linked to the nodes that produced its inputs (or to a leaf
  that requires grad), so the arrays an op saved for backward, *and only
  those*, stay alive until ``backward()``; every other intermediate is freed
  when user code drops it.  ``backward()`` topologically sorts the nodes and
  pushes vector-Jacobian products backwards.
* Gradients accumulate into ``grad`` (``+=``), matching PyTorch semantics so
  the same parameter used at several timestamps of a TGNN sequence receives
  the sum of its per-timestamp gradients.
* ``no_grad()`` disables tape recording, used for evaluation and for the
  STGraph executor's manually-orchestrated regions.
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Any, Iterator, Sequence

import numpy as np

from repro.device import current_device

__all__ = ["Tensor", "tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable autodiff tape recording inside the block."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def is_grad_enabled() -> bool:
    """Whether ops currently record onto the autodiff tape."""
    return _GRAD_ENABLED


class Tensor:
    """An autodiff-capable array on the simulated device.

    ``Tensor(x)`` tracks ``x``'s owning buffer until that buffer is
    collected, not until the tensor is: pass an array made for the device
    (an op's output, an ``upload``), not a host array that outlives it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_ctx", "__weakref__")

    def __init__(
        self,
        data: np.ndarray | Sequence[float] | float | int,
        requires_grad: bool = False,
        _track: bool = True,
    ) -> None:
        if isinstance(data, Tensor):
            raise TypeError("wrapping a Tensor in a Tensor; use .detach() or .clone()")
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float32)
        if data.dtype == np.float64:
            data = data.astype(np.float32)
        self.data: np.ndarray = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._ctx = None  # Function that produced this tensor, if any
        if _track:
            current_device().alloc.adopt(data, tag="tensor")

    # ------------------------------------------------------------------
    # Shape & dtype introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Array shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        """Element dtype (float32 throughout the framework)."""
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        """Storage size in bytes."""
        return self.data.nbytes

    def size(self, dim: int | None = None) -> int | tuple[int, ...]:
        """Shape, or the extent of one dimension."""
        return self.data.shape if dim is None else self.data.shape[dim]

    def numel(self) -> int:
        """Total number of elements."""
        return int(self.data.size)

    def item(self) -> float:
        """The value of a single-element tensor as a float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy); treat as read-only."""
        return self.data

    # ------------------------------------------------------------------
    # Graph manipulation
    # ------------------------------------------------------------------
    def detach(self) -> "Tensor":
        """A tensor sharing storage but cut from the tape."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out._ctx = None
        return out

    def clone(self) -> "Tensor":
        """Differentiable copy (see :func:`functional.clone`)."""
        from repro.tensor import functional as F

        return F.clone(self)

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-sweep the tape from this tensor.

        ``grad`` defaults to ones (the usual scalar-loss case requires a
        0-d/1-element tensor).

        Nodes are processed with Kahn's algorithm using a max-heap on each
        node's ``seq`` (drawn when it was attached, in output creation
        order): among all dependency-ready nodes the most recently *created*
        runs first, so the sweep unwinds the forward pass in exact LIFO
        order even across independent branches.  This ordering is what lets
        the temporally-aware executor rely on strict State/Graph Stack
        discipline (Algorithm 1's per-timestamp reverse walk) without
        driving backward itself.  Each node drops its ``saved`` arrays and
        ``parents`` as it is consumed; reaching a consumed node again (a
        second backward through the same graph) raises ``RuntimeError``.
        """
        root = self._ctx
        if root is None and not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar backward()")
            grad = np.ones_like(self.data)
        if root is None:  # a leaf: the seed is its whole gradient
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad += grad
            return

        # Discover the reachable tape and count, per node, how many
        # consumers will contribute gradient to it (iterative: recursion
        # would overflow on long TGNN sequences).
        consumers: dict[Any, int] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if node.parents is None:
                raise RuntimeError("backward through a graph that a previous backward already consumed")
            for parent in node.parents:
                if parent is None or isinstance(parent, Tensor):
                    continue
                if parent in consumers:
                    consumers[parent] += 1
                else:
                    consumers[parent] = 1
                    stack.append(parent)

        grads: dict[Any, np.ndarray] = {root: grad}
        ready = [(-root.seq, root)]
        while ready:
            node = heapq.heappop(ready)[1]
            node_grad = grads.pop(node, None)
            parents, node.parents = node.parents, None
            if node_grad is None:
                # No gradient reached this node; its parents still become
                # ready (with no contribution) so their tape state frees.
                input_grads = (None,) * len(parents)
            else:
                input_grads = node.backward(node_grad)
                if not isinstance(input_grads, tuple):
                    input_grads = (input_grads,)
                if len(input_grads) != len(parents):
                    raise RuntimeError(
                        f"{type(node).__name__}.backward returned {len(input_grads)} grads "
                        f"for {len(parents)} inputs"
                    )
            node.saved = ()  # free saved arrays as soon as consumed
            for parent, g in zip(parents, input_grads):
                if parent is None:
                    continue
                leaf = isinstance(parent, Tensor)
                if g is not None:
                    shape = parent.data.shape if leaf else parent.shape
                    if g.shape != shape:
                        raise RuntimeError(
                            f"{type(node).__name__} produced grad of shape {g.shape} "
                            f"for input of shape {shape}"
                        )
                    if leaf:
                        if parent.grad is None:
                            parent.grad = np.zeros_like(parent.data)
                        parent.grad += g
                    else:
                        acc = grads.get(parent)
                        grads[parent] = g if acc is None else acc + g
                if not leaf:
                    consumers[parent] -= 1
                    if consumers[parent] == 0:
                        heapq.heappush(ready, (-parent.seq, parent))

    # ------------------------------------------------------------------
    # Operator sugar (delegates to functional)
    # ------------------------------------------------------------------
    def _f(self):
        from repro.tensor import functional as F

        return F

    def __add__(self, other: Any) -> "Tensor":
        return self._f().add(self, other)

    def __radd__(self, other: Any) -> "Tensor":
        return self._f().add(other, self)

    def __sub__(self, other: Any) -> "Tensor":
        return self._f().sub(self, other)

    def __rsub__(self, other: Any) -> "Tensor":
        return self._f().sub(other, self)

    def __mul__(self, other: Any) -> "Tensor":
        return self._f().mul(self, other)

    def __rmul__(self, other: Any) -> "Tensor":
        return self._f().mul(other, self)

    def __truediv__(self, other: Any) -> "Tensor":
        return self._f().div(self, other)

    def __rtruediv__(self, other: Any) -> "Tensor":
        return self._f().div(other, self)

    def __neg__(self) -> "Tensor":
        return self._f().neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        return self._f().pow(self, exponent)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self._f().matmul(self, other)

    def __getitem__(self, idx: Any) -> "Tensor":
        return self._f().getitem(self, idx)

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """See :func:`repro.tensor.functional.sum`."""
        return self._f().sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """See :func:`repro.tensor.functional.mean`."""
        return self._f().mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        """See :func:`repro.tensor.functional.reshape`."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self._f().reshape(self, shape)

    def transpose(self) -> "Tensor":
        """2-D transpose (also available as ``.T``)."""
        return self._f().transpose(self)

    @property
    def T(self) -> "Tensor":
        """2-D transpose."""
        return self.transpose()

    def sigmoid(self) -> "Tensor":
        """See :func:`repro.tensor.functional.sigmoid`."""
        return self._f().sigmoid(self)

    def tanh(self) -> "Tensor":
        """See :func:`repro.tensor.functional.tanh`."""
        return self._f().tanh(self)

    def relu(self) -> "Tensor":
        """See :func:`repro.tensor.functional.relu`."""
        return self._f().relu(self)

    def exp(self) -> "Tensor":
        """See :func:`repro.tensor.functional.exp`."""
        return self._f().exp(self)

    def log(self) -> "Tensor":
        """See :func:`repro.tensor.functional.log`."""
        return self._f().log(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_tag})"


def tensor(data: Any, requires_grad: bool = False) -> Tensor:
    """Construct a tensor from array-like data (float32)."""
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=requires_grad)
