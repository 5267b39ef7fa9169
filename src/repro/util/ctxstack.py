"""The shared "current X" context-stack pattern.

Three subsystems install a per-run object with the same shape of plumbing:
``use_device`` (:mod:`repro.device.device`), ``use_fault_plan``
(:mod:`repro.resilience.faults`) and ``use_sanitizer``
(:mod:`repro.analysis.sanitizer`).  Each used to keep its own module-level
list; :class:`ContextStack` is the one implementation they now share.
(The tracer and flight recorder live in the telemetry spine's own
per-thread state, next to the open-interval stack they are read with.)

Stacks are **thread-local**: a ``use_*`` block entered on one thread never
changes what another thread observes, so a worker (e.g. the serving
dispatcher) always starts from the process default and must be handed its
contexts explicitly.  That is a deliberate safety property — the
alternative (a global list mutated from several threads) would let a
worker's push/pop tear down a context the main thread is still inside.

The default is process-wide and shared by all threads; ``set_default`` is
provided for subsystems whose default is a real object (the default
device) rather than a null sentinel.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Generic, Iterator, TypeVar

__all__ = ["ContextStack"]

T = TypeVar("T")


class ContextStack(Generic[T]):
    """A thread-local stack of "currently active" objects over one default."""

    def __init__(self, default: T) -> None:
        self._default = default
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def default(self) -> T:
        """The process-wide fallback all threads share."""
        return self._default

    def set_default(self, value: T) -> None:
        """Replace the process-wide fallback (rarely needed outside tests)."""
        self._default = value

    def current(self) -> T:
        """The calling thread's innermost active object (default if none)."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return self._default

    def push(self, value: T) -> None:
        """Low-level push; prefer :meth:`use`."""
        self._stack().append(value)

    def pop(self) -> T:
        """Low-level pop; prefer :meth:`use`."""
        return self._stack().pop()

    @contextlib.contextmanager
    def use(self, value: T) -> Iterator[T]:
        """Run a block with ``value`` active on the calling thread."""
        stack = self._stack()
        stack.append(value)
        try:
            yield value
        finally:
            stack.pop()
