"""Backend interface and factory (paper §VI-1).

Seastar scattered backend-specific code across DGL-Hack; STGraph instead
"introduc[es] a dedicated backend interface within the framework to house
callback functions, kernel wrappers, and any backend-specific functions",
decoupled with the Factory pattern.  All framework↔backend interaction goes
through a :class:`BackendInterface`; the bundled ``"repro"`` backend adapts
the in-tree tensor engine, and registering another implementation (JAX,
PyTorch, ...) requires no framework changes — which is what the ✓ in
Table I's "Agnostic" column means for STGraph.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterable

import numpy as np

from repro.tensor.ops import Function
from repro.util.registry import Registry

__all__ = ["BackendInterface", "register_backend", "get_backend", "available_backends"]


class BackendInterface(abc.ABC):
    """What STGraph needs from a deep-learning backend."""

    name: str = "abstract"

    # -- tensor bridge ---------------------------------------------------
    @abc.abstractmethod
    def is_tensor(self, value: Any) -> bool:
        """True if ``value`` is this backend's differentiable tensor type."""

    @abc.abstractmethod
    def to_array(self, tensor: Any) -> np.ndarray:
        """Raw ndarray view of a backend tensor."""

    @abc.abstractmethod
    def from_array(self, array: np.ndarray, requires_grad: bool = False) -> Any:
        """Wrap an ndarray as a backend tensor."""

    # -- autodiff bridge ---------------------------------------------------
    @abc.abstractmethod
    def attach_tape_node(
        self,
        output_array: np.ndarray,
        inputs: tuple[Any, ...],
        backward_cb: Callable[[np.ndarray], tuple[np.ndarray | None, ...]],
    ) -> Any:
        """Create an output tensor whose backward invokes ``backward_cb``.

        This is the single hook the executor uses to splice generated
        backward kernels into the backend's reverse sweep.
        """

    # -- training bridge --------------------------------------------------
    @abc.abstractmethod
    def parameters_of(self, module: Any) -> Iterable[Any]:
        """Trainable parameters of a backend module."""


class _CallbackNode(Function):
    """Tape node whose backward is a framework callback; the callback is
    what backward reads, so it is the node's ``saved``."""

    def __init__(self, backward_cb: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]) -> None:
        super().__init__()
        self.saved = (backward_cb,)

    def backward(self, grad: np.ndarray):
        return self.saved[0](grad)


class ReproBackend(BackendInterface):
    """Adapter for the in-tree autodiff tensor engine."""

    name = "repro"

    def is_tensor(self, value: Any) -> bool:
        """True for the in-tree :class:`Tensor`."""
        from repro.tensor.tensor import Tensor

        return isinstance(value, Tensor)

    def to_array(self, tensor: Any) -> np.ndarray:
        """The tensor's ndarray view."""
        return tensor.data

    def from_array(self, array: np.ndarray, requires_grad: bool = False) -> Any:
        """Wrap an ndarray as a :class:`Tensor`."""
        from repro.tensor.tensor import Tensor

        return Tensor(array, requires_grad=requires_grad)

    def attach_tape_node(self, output_array, inputs, backward_cb):
        """Create a Tensor whose tape node calls ``backward_cb``."""
        from repro.tensor.tensor import Tensor

        out = Tensor(output_array)
        _CallbackNode(backward_cb).attach(out, tuple(inputs))
        return out

    def parameters_of(self, module: Any):
        """Delegate to ``module.parameters()``."""
        return module.parameters()


_BACKENDS: Registry[BackendInterface] = Registry("backend")


def register_backend(name: str, factory: Callable[[], BackendInterface]) -> None:
    """Register a backend factory under ``name`` (identical re-registration
    is a no-op, a different factory for a taken name raises ``ValueError``)."""
    _BACKENDS.register(name, factory)


def get_backend(name: str = "repro") -> BackendInterface:
    """Instantiate (once) and return the named backend."""
    return _BACKENDS.get(name)


def available_backends() -> list[str]:
    """Names of all registered backends."""
    return _BACKENDS.available()


register_backend("repro", ReproBackend)
