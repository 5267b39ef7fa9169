"""Parameter initializers (seedable, Glorot/uniform)."""

from __future__ import annotations

import math

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = [
    "set_seed",
    "get_rng_state",
    "set_rng_state",
    "glorot_uniform",
    "uniform",
    "zeros",
    "ones",
    "normal",
]

_RNG = np.random.default_rng(0)


def set_seed(seed: int) -> None:
    """Re-seed the global initializer RNG (used by benchmarks for parity
    between STGraph and the baseline: both models draw the same weights)."""
    global _RNG
    _RNG = np.random.default_rng(seed)


def get_rng_state() -> dict:
    """The global RNG's bit-generator state (JSON-serializable).

    Captured into training checkpoints so a resumed run continues the exact
    random stream the killed run would have drawn from.
    """
    return _RNG.bit_generator.state


def set_rng_state(state: dict) -> None:
    """Restore a state captured by :func:`get_rng_state`."""
    _RNG.bit_generator.state = state


def uniform(shape: tuple[int, ...], lo: float = -0.1, hi: float = 0.1, requires_grad: bool = True) -> Tensor:
    """Uniform values in [lo, hi]."""
    return Tensor(_RNG.uniform(lo, hi, size=shape).astype(np.float32), requires_grad=requires_grad)


def normal(shape: tuple[int, ...], std: float = 0.01, requires_grad: bool = True) -> Tensor:
    """Zero-mean Gaussian values with the given std."""
    return Tensor((_RNG.standard_normal(shape) * std).astype(np.float32), requires_grad=requires_grad)


def glorot_uniform(shape: tuple[int, ...], requires_grad: bool = True) -> Tensor:
    """Glorot/Xavier uniform — the initializer GCN-style layers use."""
    fan_in = shape[0] if len(shape) > 0 else 1
    fan_out = shape[1] if len(shape) > 1 else fan_in
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return uniform(shape, -bound, bound, requires_grad=requires_grad)


def zeros(shape: tuple[int, ...], requires_grad: bool = True) -> Tensor:
    """Zero-initialized parameter tensor."""
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(shape: tuple[int, ...], requires_grad: bool = True) -> Tensor:
    """One-initialized parameter tensor."""
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)
