"""The process heap policy: released device buffers stay in the process.

Every array the simulated device hands out is an ordinary NumPy buffer from
the C heap.  glibc's ``malloc`` serves a request of ``M_MMAP_THRESHOLD`` or
more (128 KiB by default) with its own ``mmap`` and unmaps it on ``free``,
and it returns the top of the heap to the OS once ``M_TRIM_THRESHOLD`` of
it is free.  A training step or a served forward frees and re-requests the
same ``N×F`` arrays every step, so with the defaults each step page-faults
its working set in again: about 15 000 minor faults an epoch on WikiMaths,
whose ``1068×32`` float32 arrays (136.7 KB) sit just above 128 KiB.

:func:`set_heap_policy` raises both thresholds once per process, so those
buffers are reused from the heap instead.  ``repro.device`` calls it on
import.  The values are measured, not derived (``docs/MEMORY.md``): 4 MiB
keeps every per-step array of the benchmark workloads on the heap, and a
64 MiB trim threshold keeps what one step frees for the next.  Where
``mallopt`` does not resolve (any libc but glibc's, e.g. macOS) the policy
does nothing.
"""

from __future__ import annotations

import ctypes
from typing import Callable

__all__ = ["MMAP_THRESHOLD_BYTES", "TRIM_THRESHOLD_BYTES", "set_heap_policy"]

#: glibc ``<malloc.h>`` parameter numbers.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

#: Requests below this are served from the heap, not by their own ``mmap``.
MMAP_THRESHOLD_BYTES = 4 << 20
#: Free bytes at the top of the heap before ``free`` returns them to the OS.
TRIM_THRESHOLD_BYTES = 64 << 20

#: The outcome of the one call per process (``None`` until it is made).
_applied: bool | None = None


def _resolve_mallopt() -> Callable[[int, int], int] | None:
    """The C library's ``mallopt``, or ``None`` where it has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def set_heap_policy() -> bool:
    """Raise the heap's mmap and trim thresholds, once per process.

    Returns whether the policy is in force: ``False`` where ``mallopt``
    does not resolve or refuses a value.  Later calls return the first
    call's outcome and touch nothing.
    """
    global _applied
    if _applied is None:
        mallopt = _resolve_mallopt()
        _applied = mallopt is not None and all(
            mallopt(param, value) == 1
            for param, value in ((M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES), (M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES))
        )
    return _applied
