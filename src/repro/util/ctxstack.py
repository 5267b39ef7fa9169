"""The shared "current X" context-stack pattern.

Two subsystems install a per-run object with the same shape of plumbing:
``use_device`` (:mod:`repro.device.device`) and ``use_fault_plan``
(:mod:`repro.resilience.faults`).  Each used to keep its own module-level
list; :class:`ContextStack` is the one implementation they now share.
(The tracer and flight recorder live in the telemetry spine's own
per-thread state, next to the open-interval stack they are read with.)

Stacks are **thread-local**: a ``use_*`` block entered on one thread never
changes what another thread observes, so a worker (e.g. the serving
dispatcher) always starts from the process default and must be handed its
contexts explicitly.  That is a deliberate safety property — the
alternative (a global list mutated from several threads) would let a
worker's push/pop tear down a context the main thread is still inside.

The default is process-wide and shared by all threads, and fixed at
construction: a real object for the device, a null sentinel for faults.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Generic, Iterator, TypeVar

__all__ = ["ContextStack"]

T = TypeVar("T")


class _Local(threading.local):
    """Per-thread state whose ``stack`` exists on every thread from its
    first access, so :meth:`ContextStack.current` never takes the
    ``AttributeError`` path of a thread that never entered a block."""

    def __init__(self) -> None:
        self.stack: list = []


class ContextStack(Generic[T]):
    """A thread-local stack of "currently active" objects over one default."""

    def __init__(self, default: T) -> None:
        self._default = default
        self._local = _Local()

    @property
    def default(self) -> T:
        """The process-wide fallback all threads share."""
        return self._default

    def current(self) -> T:
        """The calling thread's innermost active object (default if none)."""
        stack = self._local.stack
        if stack:
            return stack[-1]
        return self._default

    @contextlib.contextmanager
    def use(self, value: T) -> Iterator[T]:
        """Run a block with ``value`` active on the calling thread."""
        stack = self._local.stack
        stack.append(value)
        try:
            yield value
        finally:
            stack.pop()
