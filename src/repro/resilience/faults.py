"""Deterministic, seeded fault injection for long training runs.

Long DTDG training walks Algorithm 1's LIFO backward pass over deep
State/Graph Stacks; a production deployment has to survive allocator OOM,
kernel-launch failures, corrupted snapshot caches, and plain process death
mid-sequence.  This module makes those faults *reproducible*: a
:class:`FaultPlan` names the exact ``(epoch, sequence, timestamp)`` sites
where faults fire, and a :class:`FaultInjector` — installed per run with
:func:`use_fault_plan`, mirroring the device stack — arms them.

Fault kinds
-----------
``"oom"``
    The device allocator raises :class:`InjectedOOM` at the site (every
    tracked allocation is a potential firing point).
``"kernel"``
    :class:`~repro.device.kernel.KernelLauncher.launch` raises
    :class:`InjectedKernelFault`.  The executor's degradation ladder
    (``repro.core.module``) retries once, then falls back to the
    interpreter :class:`~repro.core.engine.ExecutionEngine`.
``"cache"``
    :class:`~repro.graph.gpma_graph.GPMAGraph` treats its saved PMA state
    as corrupted and drops it, then builds the snapshot from the PMA's own
    storage (consumed via :meth:`FaultInjector.take` in the graph's
    ``snapshot()``, no exception).
``"kill"``
    The trainer raises :class:`SimulatedKill` (a ``BaseException``, like
    ``KeyboardInterrupt`` — simulating process death that ordinary
    ``except Exception`` recovery must not swallow).

Sites are matched positionally: the trainer reports the epoch/sequence
cursor, the executor reports the timestamp.  ``None`` fields are wildcards;
``timestamp=BOUNDARY`` (``-1``) matches only the sequence boundary — after
the sequence's optimizer step and checkpoint write.  Every firing is
recorded on the injector and emitted as one ``fault.<kind>`` event of the
telemetry spine: counted in the device totals (``faults_injected``), visible
in the Chrome trace and the :class:`~repro.obs.manifest.RunManifest`, and
kept in the flight ring (a kill drains it).
"""

from __future__ import annotations

import contextlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.spine import emit
from repro.util.ctxstack import ContextStack

__all__ = [
    "BOUNDARY",
    "FAULT_KINDS",
    "InjectedFault",
    "InjectedKernelFault",
    "InjectedOOM",
    "InjectedCacheCorruption",
    "SimulatedKill",
    "FaultSite",
    "FaultPlan",
    "FaultInjector",
    "NullInjector",
    "NULL_INJECTOR",
    "current_injector",
    "use_fault_plan",
]

#: Sentinel timestamp for "at the sequence boundary" (after the optimizer
#: step and the boundary checkpoint write, before the next sequence).
BOUNDARY = -1

FAULT_KINDS = ("oom", "kernel", "cache", "kill")


class InjectedFault(RuntimeError):
    """Base class of all injected faults (except :class:`SimulatedKill`)."""


class InjectedKernelFault(InjectedFault):
    """A planned kernel-launch failure."""


class InjectedOOM(InjectedFault, MemoryError):
    """A planned allocator out-of-memory failure."""


class InjectedCacheCorruption(InjectedFault):
    """A planned snapshot/CSR-cache corruption flag (raised only when a
    ``"cache"`` site is consumed via :meth:`FaultInjector.fire` rather than
    the graceful :meth:`FaultInjector.take` path)."""


class SimulatedKill(BaseException):
    """A planned process kill.  Deliberately *not* an ``Exception``: like
    SIGKILL, it must escape ordinary error handling and end the run; only
    the resume machinery (and tests) catch it."""


_EXCEPTIONS: dict[str, type[BaseException]] = {
    "oom": InjectedOOM,
    "kernel": InjectedKernelFault,
    "cache": InjectedCacheCorruption,
    "kill": SimulatedKill,
}


@dataclass
class FaultSite:
    """One planned fault: kind + position + how many times it fires.

    ``None`` position fields are wildcards.  ``times`` bounds the number of
    firings (a kernel site with ``times=2`` fails the launch *and* its
    retry, forcing the interpreter fallback; ``times=1`` lets the retry
    succeed and exercises the differential check instead).
    """

    kind: str
    epoch: int | None = None
    sequence: int | None = None
    timestamp: int | None = None
    times: int = 1
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.times < 1:
            raise ValueError(f"fault site needs times >= 1, got {self.times}")

    def matches(self, epoch: int | None, sequence: int | None, timestamp: int | None) -> bool:
        """Whether this site is armed at the given position."""
        if self.fired >= self.times:
            return False
        if self.epoch is not None and self.epoch != epoch:
            return False
        if self.sequence is not None and self.sequence != sequence:
            return False
        if self.timestamp is not None and self.timestamp != timestamp:
            return False
        return True

    def to_dict(self) -> dict:
        """JSON-ready form (the fault-plan file format)."""
        return {
            "kind": self.kind,
            "epoch": self.epoch,
            "sequence": self.sequence,
            "timestamp": self.timestamp,
            "times": self.times,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSite":
        """Inverse of :meth:`to_dict` (unknown keys rejected loudly)."""
        known = {"kind", "epoch", "sequence", "timestamp", "times"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault-site fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class FaultPlan:
    """A named, ordered collection of :class:`FaultSite`\\ s.

    Plans are plain data: JSON round-trippable (``to_json``/``from_json``)
    so CI chaos runs and bug reports can pin the exact failure schedule.
    """

    name: str = "plan"
    seed: int = 0
    sites: list[FaultSite] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "name": self.name,
            "seed": self.seed,
            "sites": [s.to_dict() for s in self.sites],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(data.get("name", "plan")),
            seed=int(data.get("seed", 0)),
            sites=[FaultSite.from_dict(s) for s in data.get("sites", [])],
        )

    def to_json(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the plan as JSON; returns the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def from_json(cls, path: str | pathlib.Path) -> "FaultPlan":
        """Read a plan written by :meth:`to_json`."""
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))

    @classmethod
    def random(
        cls,
        seed: int,
        n_sites: int = 3,
        kinds: tuple[str, ...] = ("oom", "kernel", "cache"),
        epochs: int = 2,
        sequences: int = 2,
        timestamps: int = 8,
        name: str = "random",
    ) -> "FaultPlan":
        """A deterministic, seeded random plan (same seed → same sites)."""
        import numpy as np

        rng = np.random.default_rng(seed)
        sites = [
            FaultSite(
                kind=kinds[int(rng.integers(len(kinds)))],
                epoch=int(rng.integers(epochs)),
                sequence=int(rng.integers(sequences)),
                timestamp=int(rng.integers(timestamps)),
            )
            for _ in range(n_sites)
        ]
        return cls(name=name, seed=seed, sites=sites)


class FaultInjector:
    """Arms a :class:`FaultPlan` against the run's position cursor.

    The trainer advances the ``(epoch, sequence)`` cursor, the executor the
    ``timestamp``; hook points then ask the injector to :meth:`fire`
    (raising) or :meth:`take` (consume silently, for graceful-degradation
    paths that handle the fault in place).
    """

    enabled = True

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.epoch: int | None = None
        self.sequence: int | None = None
        self.timestamp: int | None = None
        #: every firing: {kind, epoch, sequence, timestamp}
        self.fired: list[dict[str, Any]] = []
        self._counts: dict[str, int] = {}

    # -- position cursor -------------------------------------------------
    def at_epoch(self, epoch: int) -> None:
        """Move the cursor to the start of ``epoch``."""
        self.epoch = int(epoch)
        self.sequence = None
        self.timestamp = None

    def at_sequence(self, sequence: int) -> None:
        """Move the cursor to the start of sequence ``sequence``."""
        self.sequence = int(sequence)
        self.timestamp = None

    def at_timestamp(self, timestamp: int | None) -> None:
        """Move the cursor to ``timestamp`` (or :data:`BOUNDARY` / None)."""
        self.timestamp = None if timestamp is None else int(timestamp)

    # -- firing ----------------------------------------------------------
    def _match(self, kind: str) -> FaultSite | None:
        for site in self.plan.sites:
            if site.kind == kind and site.matches(self.epoch, self.sequence, self.timestamp):
                return site
        return None

    def take(self, kind: str) -> FaultSite | None:
        """Consume a matching armed site without raising (or ``None``).

        The graceful-degradation hooks use this: the caller observes the
        fault and recovers in place (e.g. GPMA rebuilding via Algorithm 3).
        """
        site = self._match(kind)
        if site is None:
            return None
        site.fired += 1
        self._counts[kind] = self._counts.get(kind, 0) + 1
        record = {
            "kind": kind,
            "epoch": self.epoch,
            "sequence": self.sequence,
            "timestamp": self.timestamp,
        }
        self.fired.append(record)
        # A kill is about to unwind as a BaseException and a boundary kill
        # never reaches abort_sequence, so the fault.kill row drains the
        # flight ring here, before the raise.
        emit("fault." + kind, epoch=self.epoch, sequence=self.sequence, timestamp=self.timestamp)
        return site

    def fire(self, kind: str) -> None:
        """Raise the kind's exception if a site is armed here; else no-op."""
        site = self.take(kind)
        if site is not None:
            raise _EXCEPTIONS[kind](
                f"injected {kind} fault (plan {self.plan.name!r}, epoch={self.epoch}, "
                f"sequence={self.sequence}, timestamp={self.timestamp})"
            )

    # -- reporting -------------------------------------------------------
    def faults_injected(self) -> dict[str, int]:
        """Firings so far, keyed by kind (the RunManifest field)."""
        return dict(self._counts)

    def exhausted(self) -> bool:
        """True when every planned site has fired its full ``times``."""
        return all(s.fired >= s.times for s in self.plan.sites)


class NullInjector:
    """Disabled injector: the zero-overhead default on every hot path."""

    enabled = False

    def at_epoch(self, epoch: int) -> None:
        """No-op."""

    def at_sequence(self, sequence: int) -> None:
        """No-op."""

    def at_timestamp(self, timestamp: int | None) -> None:
        """No-op."""

    def take(self, kind: str) -> None:
        """Never armed."""
        return None

    def fire(self, kind: str) -> None:
        """Never fires."""

    def faults_injected(self) -> dict[str, int]:
        """Always empty."""
        return {}


NULL_INJECTOR = NullInjector()

# ---------------------------------------------------------------------------
# Current-injector plumbing (shared ContextStack; mirrors repro.device)
# ---------------------------------------------------------------------------
_STACK: ContextStack[FaultInjector | NullInjector] = ContextStack(NULL_INJECTOR)


def current_injector() -> FaultInjector | NullInjector:
    """The innermost active injector (:data:`NULL_INJECTOR` by default).

    Per-thread: fault sites never fire on a worker thread unless an injector
    is installed there, so planned faults keep their positional meaning on
    the training loop's cursor.
    """
    return _STACK.current()


@contextlib.contextmanager
def use_fault_plan(plan: FaultPlan | FaultInjector | None) -> Iterator[FaultInjector | NullInjector]:
    """Run a block with ``plan`` armed; ``None`` keeps injection disabled.

    Accepts a prepared :class:`FaultInjector` too, so a resumed run can
    keep the same partially-consumed injector across trainer instances.
    """
    if plan is None:
        injector: FaultInjector | NullInjector = NULL_INJECTOR
    elif isinstance(plan, FaultInjector):
        injector = plan
    else:
        injector = FaultInjector(plan)
    with _STACK.use(injector):
        yield injector
