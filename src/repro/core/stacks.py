"""The State Stack and Graph Stack (paper §V-A.2 / §V-B, Figure 2).

Training a TGNN processes a sequence of timestamps forward, then walks the
same timestamps backward in LIFO order.  The **State Stack** keeps, per
forward aggregation, exactly the input state its backward needs (already
pruned by the compiler's saved-tensor analysis); the **Graph Stack** keeps,
per timestamp, which snapshot was used, so the backward pass can reposition
a dynamic graph before running backward kernels.

``StateStack.pop(token)`` enforces LIFO by default.  Independent branches
inside one timestamp (e.g. a TGCN's three gate convolutions) may legally
drain in any order *within* the timestamp, so entries also carry their
timestamp and out-of-order pops are permitted inside the top timestamp
group while cross-timestamp violations raise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

__all__ = ["StackEntry", "StateStack", "GraphStack"]

_tokens = itertools.count()


@dataclass
class StackEntry:
    """One saved forward state."""

    token: int
    timestamp: int
    saved: dict[str, Any]
    tag: str = ""
    #: bytes as measured at push time; the running total subtracts exactly
    #: this on pop, so later mutation of ``saved`` cannot skew accounting.
    bytes_at_push: int = 0

    def nbytes(self) -> int:
        """Bytes retained by this entry's saved arrays."""
        total = 0
        for v in self.saved.values():
            total += getattr(v, "nbytes", 0)
        return total


class StateStack:
    """LIFO store of per-aggregation forward state.

    Byte accounting is O(1) per operation: a running ``_current_bytes``
    total is updated on push/pop/clear instead of re-summing every retained
    entry, so long sequences don't pay quadratic bookkeeping.  Traces read
    that total (:meth:`current_bytes`) once per timestamp, as the
    ``state_bytes`` attr of ``train.timestamp``; a push or pop writes no
    record.
    """

    def __init__(self) -> None:
        self._entries: list[StackEntry] = []
        self._current_bytes = 0
        self.peak_depth = 0
        self.peak_bytes = 0
        self.total_pushes = 0

    def push(self, timestamp: int, saved: dict[str, Any], tag: str = "") -> int:
        """Push one aggregation's saved state; returns the pop token."""
        entry = StackEntry(next(_tokens), timestamp, saved, tag)
        entry.bytes_at_push = entry.nbytes()
        self._entries.append(entry)
        self._current_bytes += entry.bytes_at_push
        self.total_pushes += 1
        self.peak_depth = max(self.peak_depth, len(self._entries))
        self.peak_bytes = max(self.peak_bytes, self._current_bytes)
        return entry.token

    def pop(self, token: int) -> dict[str, Any]:
        """Pop the entry with ``token``.

        Must be in the same timestamp group as the current top; popping an
        entry buried under a *different* timestamp indicates the executor
        lost LIFO discipline and raises.
        """
        if not self._entries:
            raise RuntimeError("state stack underflow")
        top_ts = self._entries[-1].timestamp
        for i in range(len(self._entries) - 1, -1, -1):
            entry = self._entries[i]
            if entry.token == token:
                if entry.timestamp != top_ts:
                    raise RuntimeError(
                        f"state stack LIFO violation: popping timestamp "
                        f"{entry.timestamp} under top timestamp {top_ts}"
                    )
                del self._entries[i]
                self._current_bytes -= entry.bytes_at_push
                return entry.saved
            if entry.timestamp != top_ts:
                break
        raise KeyError(f"state stack entry {token} not found in top timestamp group")

    def current_bytes(self) -> int:
        """Bytes currently retained across all entries (O(1) running total)."""
        return self._current_bytes

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        """True when no saved state is retained."""
        return not self._entries

    def clear(self) -> None:
        """Drop all entries (recovery path; normal draining uses pop)."""
        self._entries.clear()
        self._current_bytes = 0


class GraphStack:
    """LIFO record of snapshot timestamps used in a sequence's forward pass."""

    def __init__(self) -> None:
        self._stack: list[int] = []
        self.peak_depth = 0

    def push(self, timestamp: int) -> None:
        """Record a forward timestamp."""
        self._stack.append(int(timestamp))
        self.peak_depth = max(self.peak_depth, len(self._stack))

    def pop(self) -> int:
        """Remove and return the most recent timestamp."""
        if not self._stack:
            raise RuntimeError("graph stack underflow")
        return self._stack.pop()

    def top(self) -> int | None:
        """The most recent timestamp, or None when empty."""
        return self._stack[-1] if self._stack else None

    def __len__(self) -> int:
        return len(self._stack)

    @property
    def is_empty(self) -> bool:
        """True when no timestamps are recorded."""
        return not self._stack

    def clear(self) -> None:
        """Drop all recorded timestamps."""
        self._stack.clear()
