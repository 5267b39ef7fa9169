"""Runtime lock-order sanitizer: instrumented locks over a held-set model.

The static half of the concurrency toolkit (:mod:`repro.analysis.lockcheck`)
reasons about lock discipline from source; this module checks the same
discipline *live*.  When active, the factories below hand out wrapped
primitives that report every acquire/release to a process-wide
:class:`LockOrderSanitizer`, which maintains

* a **per-thread held-set** (which sanitized locks this thread holds, with
  reentrancy counts so RLocks do not self-report), and
* a **process-global lock-acquisition-order graph** keyed by lock *site*
  (the name passed to the factory, normally ``"Class._attr"``): acquiring
  ``B`` while holding ``A`` adds the edge ``A -> B``.

Two violation kinds are detected at the moment they happen:

* ``lock-order-cycle`` — the new edge closes a cycle in the order graph
  (the classic ABBA deadlock pattern, caught even when the interleaving
  that would actually deadlock never fires);
* ``wait-while-holding`` — ``Condition.wait``/``wait_for`` entered while
  the thread holds a lock *other than* the condition's own (the waiter
  parks holding a resource the waker may need).

Violations are recorded on the sanitizer (``.violations``) and as a
flight-recorder event (kind ``"tsan"``); in ``strict`` mode they raise
:class:`LockOrderViolation` at the offending call site.

Activation mirrors the device/fault-injector pattern
(:mod:`repro.util.ctxstack`): the default is a :class:`NullSanitizer`
whose factories return the **raw** ``threading`` primitives — the
disabled-path overhead is exactly zero because nothing is wrapped.
``REPRO_TSAN=1`` (or ``=strict``) at process start installs a real
sanitizer as the process-wide default, so every lock the framework
creates from then on is instrumented; ``use_sanitizer()`` scopes one to a
block for tests.  Because instrumentation is decided at lock *creation*
time, objects built before activation keep raw locks — activate first,
construct after.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Any, Callable, Iterator, Union

from repro.util.ctxstack import ContextStack

__all__ = [
    "LockOrderSanitizer",
    "LockOrderViolation",
    "NullSanitizer",
    "SanitizedCondition",
    "SanitizedLock",
    "current_sanitizer",
    "new_condition",
    "new_lock",
    "new_rlock",
    "use_sanitizer",
]


class LockOrderViolation(RuntimeError):
    """A lock-discipline violation detected at runtime (strict mode only)."""

    def __init__(self, message: str, details: dict[str, Any]) -> None:
        super().__init__(message)
        self.details = details


class SanitizedLock:
    """A ``threading.Lock``/``RLock`` wrapper reporting to a sanitizer.

    The wrapper is API-compatible with the wrapped primitive for every use
    the framework makes of it (``with``, ``acquire``/``release``,
    ``locked``) and is accepted by ``threading.Condition`` as its
    underlying lock, so condvar release/re-acquire cycles stay visible to
    the held-set model.
    """

    def __init__(self, sanitizer: "LockOrderSanitizer", inner: Any, name: str,
                 reentrant: bool = False) -> None:
        self._san = sanitizer
        self._inner = inner
        self.name = name
        self.reentrant = reentrant

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        # Order/cycle bookkeeping happens *before* blocking: if the cycle
        # this acquire closes actually deadlocks, a post-acquire check
        # would never run.  Non-blocking attempts cannot deadlock and are
        # exempt from ordering (Condition._is_owned probes use them).
        if blocking:
            self._san._before_acquire(self)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._san._acquired(self)
        return ok

    def release(self) -> None:
        self._inner.release()
        self._san._released(self)

    def locked(self) -> bool:
        return bool(self._inner.locked()) if hasattr(self._inner, "locked") else False

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SanitizedLock({self.name!r})"


class SanitizedCondition:
    """A ``threading.Condition`` over a :class:`SanitizedLock`.

    Delegates everything to a real condition built on the wrapped lock (so
    wait's release/re-acquire runs through the wrapper and the held-set
    stays exact) and adds the wait-while-holding-foreign-lock check.
    """

    def __init__(self, sanitizer: "LockOrderSanitizer", lock: SanitizedLock, name: str) -> None:
        self._san = sanitizer
        self._lock = lock
        self._inner = threading.Condition(lock)  # type: ignore[arg-type]
        self.name = name

    # -- lock protocol ---------------------------------------------------
    def acquire(self, *args: Any) -> bool:
        return bool(self._inner.acquire(*args))

    def release(self) -> None:
        self._inner.release()

    def __enter__(self) -> bool:
        return bool(self._inner.__enter__())

    def __exit__(self, *exc: Any) -> None:
        self._inner.__exit__(*exc)

    # -- condvar protocol ------------------------------------------------
    def wait(self, timeout: float | None = None) -> bool:
        self._san._check_wait(self._lock, self.name)
        return bool(self._inner.wait(timeout))

    def wait_for(self, predicate: Callable[[], Any], timeout: float | None = None) -> Any:
        self._san._check_wait(self._lock, self.name)
        return self._inner.wait_for(predicate, timeout)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SanitizedCondition({self.name!r})"


class LockOrderSanitizer:
    """The process-global order graph + per-thread held-sets.

    Parameters
    ----------
    strict:
        When True, a violation raises :class:`LockOrderViolation` at the
        offending acquire/wait; otherwise it is recorded (``.violations``,
        flight recorder) and execution continues — the mode the CI
        ``REPRO_TSAN=1`` job uses so one violation does not mask others.
    """

    enabled = True

    def __init__(self, strict: bool = False, name: str = "tsan") -> None:
        self.strict = strict
        self.name = name
        # The sanitizer's own mutex is a *raw* lock and is never held while
        # calling out, so instrumentation cannot deadlock itself.
        self._meta = threading.Lock()
        self._tls = threading.local()
        #: site -> set of sites acquired while holding it
        self._order: dict[str, set[str]] = {}
        #: (holder site, acquired site) -> first observing thread name
        self._edge_threads: dict[tuple[str, str], str] = {}
        self.violations: list[dict[str, Any]] = []
        self.acquisitions = 0
        self._anon = 0

    # -- factories -------------------------------------------------------
    def _site(self, name: str, kind: str) -> str:
        if name:
            return name
        with self._meta:
            self._anon += 1
            return f"{kind}-{self._anon}"

    def lock(self, name: str = "") -> SanitizedLock:
        """An instrumented mutex for the lock site ``name``."""
        return SanitizedLock(self, threading.Lock(), self._site(name, "lock"))

    def rlock(self, name: str = "") -> SanitizedLock:
        """An instrumented reentrant mutex for the lock site ``name``."""
        return SanitizedLock(self, threading.RLock(), self._site(name, "rlock"), reentrant=True)

    def condition(self, lock: Any = None, name: str = "") -> Any:
        """An instrumented condition variable.

        ``lock`` may be a :class:`SanitizedLock` this sanitizer issued
        (the condition shares it), ``None``
        (a private instrumented lock is created), or a raw primitive from
        before activation — in which case a plain ``threading.Condition``
        over that same mutex is returned, uninstrumented but correct.
        """
        site = self._site(name, "condition")
        if lock is None:
            lock = SanitizedLock(self, threading.Lock(), site)
        elif not isinstance(lock, SanitizedLock):
            return threading.Condition(lock)
        return SanitizedCondition(self, lock, site)

    # -- held-set model --------------------------------------------------
    def _held(self) -> dict[int, list[Any]]:
        """``id(wrapper) -> [wrapper, count]`` for the calling thread."""
        held = getattr(self._tls, "held", None)
        if held is None:
            held = {}
            self._tls.held = held
        return held

    def held_sites(self) -> list[str]:
        """Sites the calling thread currently holds (diagnostics/tests)."""
        return [entry[0].name for entry in self._held().values()]

    def _before_acquire(self, lock: SanitizedLock) -> None:
        held = self._held()
        entry = held.get(id(lock))
        if entry is not None:
            # Re-acquiring a lock this thread already holds: legal only for
            # RLocks and never an ordering event.
            return
        holders = [e[0].name for e in held.values() if e[0].name != lock.name]
        if not holders:
            return
        cycle: list[str] | None = None
        with self._meta:
            for holder in holders:
                self._order.setdefault(holder, set()).add(lock.name)
                self._edge_threads.setdefault(
                    (holder, lock.name), threading.current_thread().name
                )
            cycle = self._find_cycle_locked(lock.name, set(holders))
        if cycle is not None:
            self._violation(
                "lock-order-cycle",
                f"acquiring {lock.name!r} while holding {holders!r} closes the "
                f"order cycle {' -> '.join(cycle)}",
                cycle=cycle,
                acquiring=lock.name,
                holding=holders,
            )

    def _find_cycle_locked(self, start: str, targets: set[str]) -> list[str] | None:
        """A path ``start -> ... -> t`` for some held ``t`` (meta lock held)."""
        stack = [(start, [start])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            for succ in self._order.get(node, ()):
                if succ in targets:
                    return path + [succ, start]
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, path + [succ]))
        return None

    def _acquired(self, lock: SanitizedLock) -> None:
        held = self._held()
        entry = held.get(id(lock))
        if entry is None:
            held[id(lock)] = [lock, 1]
        else:
            entry[1] += 1
        with self._meta:
            self.acquisitions += 1

    def _released(self, lock: SanitizedLock) -> None:
        held = self._held()
        entry = held.get(id(lock))
        if entry is None:  # released a lock acquired before instrumentation
            return
        entry[1] -= 1
        if entry[1] <= 0:
            del held[id(lock)]

    def _check_wait(self, own: SanitizedLock, cond_name: str) -> None:
        foreign = [
            e[0].name for e in self._held().values() if e[0] is not own
        ]
        if foreign:
            self._violation(
                "wait-while-holding",
                f"waiting on {cond_name!r} while holding foreign lock(s) {foreign!r}",
                condition=cond_name,
                holding=foreign,
            )

    # -- reporting -------------------------------------------------------
    def _violation(self, kind: str, message: str, **details: Any) -> None:
        record = {
            "kind": kind,
            "message": message,
            "thread": threading.current_thread().name,
            **details,
        }
        with self._meta:
            self.violations.append(record)
        # The flight recorder is the incident-response channel: a violation
        # lands in the ring even when the run carries on.
        from repro.obs.spine import emit  # here: the spine's locks come from this module

        emit("analysis.tsan_violation", violation=kind, message=message, thread=record["thread"], **details)
        if self.strict:
            raise LockOrderViolation(message, record)

    def order_graph(self) -> dict[str, set[str]]:
        """Copy of the observed acquisition-order edges."""
        with self._meta:
            return {k: set(v) for k, v in self._order.items()}

    def order_cycles(self) -> list[list[str]]:
        """Every elementary cycle currently closed in the order graph."""
        with self._meta:
            graph = {k: sorted(v) for k, v in self._order.items()}
        cycles: list[list[str]] = []
        seen_keys: set[tuple[str, ...]] = set()
        for start in sorted(graph):
            stack: list[tuple[str, list[str]]] = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for succ in graph.get(node, ()):
                    if succ == start:
                        cycle = path + [start]
                        key = tuple(sorted(cycle[:-1]))
                        if key not in seen_keys:
                            seen_keys.add(key)
                            cycles.append(cycle)
                    elif succ not in path:
                        stack.append((succ, path + [succ]))
        return cycles

    def report(self) -> str:
        """Human-readable summary (printed by the REPRO_TSAN session gate)."""
        lines = [
            f"sanitizer {self.name}: {self.acquisitions} acquisition(s), "
            f"{len(self.violations)} violation(s), "
            f"{len(self.order_cycles())} order cycle(s)"
        ]
        for v in self.violations:
            lines.append(f"  [{v['kind']}] {v['message']} (thread {v['thread']})")
        return "\n".join(lines)


class NullSanitizer:
    """Disabled default: factories return the raw ``threading`` primitives.

    The instrumented path costs nothing when off because nothing is
    wrapped — the benchmark gate in
    ``benchmarks/test_micro_obs_overhead.py`` pins this down by type.
    """

    enabled = False
    strict = False
    violations: list[dict[str, Any]] = []
    acquisitions = 0

    def lock(self, name: str = "") -> threading.Lock:
        return threading.Lock()

    def rlock(self, name: str = "") -> "threading.RLock":  # type: ignore[valid-type]
        return threading.RLock()

    def condition(self, lock: Any = None, name: str = "") -> threading.Condition:
        return threading.Condition(lock)

    def held_sites(self) -> list[str]:
        return []

    def order_graph(self) -> dict[str, set[str]]:
        return {}

    def order_cycles(self) -> list[list[str]]:
        return []

    def report(self) -> str:
        return "sanitizer disabled"


#: The process-wide default: no instrumentation.
NULL_SANITIZER = NullSanitizer()

AnySanitizer = Union[LockOrderSanitizer, NullSanitizer]

_STACK: ContextStack[AnySanitizer] = ContextStack(NULL_SANITIZER)

_env = os.environ.get("REPRO_TSAN", "")
if _env not in ("", "0"):
    # Process-start activation: every lock the framework creates from here
    # on is instrumented, on every thread (the default is process-wide).
    _STACK.set_default(LockOrderSanitizer(strict=_env == "strict"))


def current_sanitizer() -> AnySanitizer:
    """The calling thread's innermost active sanitizer (null unless installed)."""
    return _STACK.current()


@contextlib.contextmanager
def use_sanitizer(sanitizer: AnySanitizer) -> Iterator[AnySanitizer]:
    """Run a block with ``sanitizer`` active on this thread.

    Locks created inside the block are instrumented; locks that already
    exist are not retrofitted (instrumentation is a creation-time choice).
    """
    with _STACK.use(sanitizer):
        yield sanitizer


# ---------------------------------------------------------------------------
# The factories the framework's threaded modules call
# ---------------------------------------------------------------------------
def new_lock(name: str = "") -> Any:
    """A mutex for lock site ``name`` — raw when no sanitizer is active."""
    return current_sanitizer().lock(name)


def new_rlock(name: str = "") -> Any:
    """A reentrant mutex for lock site ``name`` — raw when inactive."""
    return current_sanitizer().rlock(name)


def new_condition(lock: Any = None, name: str = "") -> Any:
    """A condition variable for site ``name``, optionally over ``lock``."""
    return current_sanitizer().condition(lock, name)
