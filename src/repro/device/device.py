"""The simulated device and the active-device context.

A :class:`Device` bundles the allocator, kernel launcher, and telemetry
totals that together stand in for one GPU.  The framework (tensor engine, graph
structures, executor, and the PyG-T baseline) always allocates through
``current_device().alloc`` so that every comparison in the benchmark harness
is measured by the same instrument.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.device.allocator import DeviceAllocator, MemoryTracker
from repro.device.kernel import KernelLauncher
from repro.obs.spine import LiveTotals
from repro.util.ctxstack import ContextStack

__all__ = ["Device", "default_device", "current_device", "use_device"]


class Device:
    """One simulated accelerator.

    Parameters
    ----------
    name:
        Identifier used in reprs and error messages (``"sim:0"`` by default,
        mirroring ``cuda:0``).
    memory_limit_bytes:
        Optional hard cap.  When set, :meth:`check_oom` raises
        :class:`DeviceOutOfMemoryError` once residency exceeds the cap —
        useful for tests that assert a workload fits a memory budget.
    """

    def __init__(self, name: str = "sim:0", memory_limit_bytes: int | None = None) -> None:
        self.name = name
        self.tracker = MemoryTracker()
        self.alloc = DeviceAllocator(self.tracker)
        self.totals = LiveTotals()  # what span() / emit() record while this device is current
        self.launcher = KernelLauncher()
        self.memory_limit_bytes = memory_limit_bytes

    def check_oom(self) -> None:
        """Raise :class:`DeviceOutOfMemoryError` if over the configured cap."""
        if self.memory_limit_bytes is not None and self.tracker.current_bytes > self.memory_limit_bytes:
            raise DeviceOutOfMemoryError(
                f"{self.name}: resident {self.tracker.current_bytes} bytes exceeds "
                f"limit {self.memory_limit_bytes} bytes"
            )

    def reset(self) -> None:
        """Clear totals (latency histograms included) and kernel counters;
        memory accounting is preserved (live arrays are still live)."""
        self.totals.reset()
        self.launcher.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Device({self.name!r}, resident={self.tracker.current_bytes}B, "
            f"peak={self.tracker.peak_bytes}B)"
        )


class DeviceOutOfMemoryError(MemoryError):
    """Raised when a device with a memory cap exceeds it."""


_DEFAULT = Device()
_STACK: ContextStack[Device] = ContextStack(_DEFAULT)


def default_device() -> Device:
    """The process-wide default device."""
    return _STACK.default


def current_device() -> Device:
    """The innermost active device (default unless inside :func:`use_device`).

    Per-thread, like every :class:`~repro.util.ctxstack.ContextStack`: a
    worker thread sees the process default unless a device is installed on
    that thread (the serving dispatcher does exactly that with the device it
    captured from the thread that started it).
    """
    return _STACK.current()


@contextlib.contextmanager
def use_device(device: Device) -> Iterator[Device]:
    """Run a block with ``device`` as the active device.

    Benchmarks create a fresh device per measured configuration so peak
    memory and phase timings are isolated between runs.
    """
    with _STACK.use(device):
        yield device
