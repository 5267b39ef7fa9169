"""Backend interface + factory (paper §VI-1)."""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.core.backend import (
    BackendInterface,
    ReproBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.core.engine import KernelEngine, available_engines, get_engine, register_engine
from repro.tensor import Tensor, functional as F


def test_repro_backend_registered():
    assert "repro" in available_backends()


def test_get_backend_singleton():
    assert get_backend("repro") is get_backend("repro")


def test_unknown_backend_raises():
    with pytest.raises(KeyError, match="unknown backend"):
        get_backend("tensorflow")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):
        register_backend("repro", lambda: None)


@pytest.mark.parametrize(
    "register, get, available, taken, factory",
    [
        (register_backend, get_backend, available_backends, "repro", ReproBackend),
        (register_engine, get_engine, available_engines, "kernel", KernelEngine),
    ],
    ids=["backend", "engine"],
)
def test_registry_contract(register, get, available, taken, factory):
    """Backends and engines share one registry: identical re-registration is
    a no-op, a different factory for a taken name raises, and an unknown
    name lists what is available."""
    before = available()
    register(taken, factory)
    # what a re-import of the defining module produces: a new object, same definition
    reimported = type(factory.__name__, (factory,), {"__module__": factory.__module__})
    reimported.__qualname__ = factory.__qualname__
    register(taken, reimported)
    assert available() == before
    assert type(get(taken)) is factory and get(taken) is get(taken)
    with pytest.raises(ValueError, match="already registered"):
        register(taken, lambda: None)
    with pytest.raises(KeyError) as excinfo:
        get("no-such-name")
    assert all(name in str(excinfo.value) for name in before)


def test_tensor_bridge(rng):
    be = get_backend("repro")
    arr = rng.standard_normal((3, 3)).astype(np.float32)
    t = be.from_array(arr, requires_grad=True)
    assert be.is_tensor(t)
    assert not be.is_tensor(arr)
    assert np.array_equal(be.to_array(t), arr)


def test_attach_tape_node_backward_called(rng):
    be = get_backend("repro")
    x = Tensor(rng.standard_normal((2, 2)).astype(np.float32), requires_grad=True)
    calls = []

    def backward_cb(grad):
        calls.append(grad)
        return (grad * 3.0,)

    out = be.attach_tape_node(x.data * 2.0, (x,), backward_cb)
    F.sum(out).backward()
    assert len(calls) == 1
    assert np.allclose(x.grad, 3.0)


def test_attach_tape_node_does_not_keep_a_non_leaf_input_alive(fresh_device, rng):
    """The backend's node links to the producing node of a non-leaf input, as
    every op does: the input's data is freed when the caller drops it, and the
    gradient still reaches the leaf behind it."""
    be = get_backend("repro")
    x = Tensor(rng.standard_normal((2, 2)).astype(np.float32), requires_grad=True)
    mid = F.mul(x, 2.0)
    data_ref = weakref.ref(mid.data)
    out = be.attach_tape_node(mid.data * 3.0, (mid,), lambda grad: (grad * 3.0,))
    resident = fresh_device.tracker.current_bytes
    nbytes = mid.nbytes
    del mid
    assert data_ref() is None
    assert fresh_device.tracker.current_bytes == resident - nbytes
    F.sum(out).backward()
    assert np.array_equal(x.grad, np.full((2, 2), 6.0, dtype=np.float32))


def test_parameters_of_module():
    from repro.tensor import nn

    be = get_backend("repro")
    lin = nn.Linear(2, 3)
    params = list(be.parameters_of(lin))
    assert len(params) == 2


def test_custom_backend_registration():
    class Dummy(BackendInterface):
        name = "dummy-test"

        def is_tensor(self, value):
            return False

        def to_array(self, tensor):
            return tensor

        def from_array(self, array, requires_grad=False):
            return array

        def attach_tape_node(self, output_array, inputs, backward_cb):
            return output_array

        def parameters_of(self, module):
            return []

    register_backend("dummy-test", Dummy)
    assert isinstance(get_backend("dummy-test"), Dummy)
