"""Simulated device substrate.

The paper runs on an NVIDIA A100 with CUDA kernels generated by the Seastar
compiler.  This environment has no GPU, so ``repro.device`` provides the
closest synthetic equivalent that exercises the same code paths:

* :class:`MemoryTracker` / :class:`DeviceAllocator` — a byte-accurate
  allocation tracker (with peak accounting) standing in for
  ``cudaMalloc``/``torch.cuda.max_memory_allocated``.  Every tensor and every
  graph array allocated by the framework registers here, so the memory
  comparisons of Figures 6 and 8 are measured, not estimated.
* :class:`Device` — the "GPU": owns an allocator, launches compiled kernels,
  and holds the telemetry totals (``device.totals``) the Figure 9
  time-breakup experiment reads.
* :class:`KernelLauncher` — executes kernels produced by the compiler's
  codegen stage, mirroring Seastar's executor invoking generated CUDA
  kernels.
* :func:`set_heap_policy` — keeps freed buffers in the process heap instead
  of handing them back to the OS (glibc only); applied once, on import.

The allocator is also used by the PyG-T baseline so both systems are measured
with the same instrument.
"""

from repro.device.allocator import AllocationRecord, DeviceAllocator, MemoryTracker
from repro.device.device import Device, current_device, default_device, use_device
from repro.device.heap import set_heap_policy
from repro.device.kernel import CompiledKernel, KernelLauncher
from repro.device.launch_config import LaunchConfig, estimated_occupancy, feature_adaptive_config

__all__ = [
    "AllocationRecord",
    "DeviceAllocator",
    "MemoryTracker",
    "Device",
    "current_device",
    "default_device",
    "use_device",
    "CompiledKernel",
    "KernelLauncher",
    "LaunchConfig",
    "feature_adaptive_config",
    "estimated_occupancy",
    "set_heap_policy",
]

set_heap_policy()
