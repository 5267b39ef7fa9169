"""Runtime lock-order sanitizer: violations are caught live, off costs zero.

Mirrors the seeded-bug discipline of the static suite
(``tests/test_analysis_lockcheck.py``): each violation kind is provoked
with a tiny real interleaving and must be detected, and the disabled path
is pinned to return *raw* ``threading`` primitives so the framework's hot
paths pay nothing when ``REPRO_TSAN`` is off.  The seeded mutations of the
shipped sources that the static analyzer misses and this half catches
(DESIGN.md, "One lock checker, or two") are run live at the bottom.
"""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

from repro.analysis.sanitizer import (
    NULL_SANITIZER,
    LockOrderSanitizer,
    LockOrderViolation,
    NullSanitizer,
    SanitizedCondition,
    SanitizedLock,
    current_sanitizer,
    new_condition,
    new_lock,
    new_rlock,
    use_sanitizer,
)
from repro.obs import FlightRecorder, use_flight_recorder

_RAW_LOCK_TYPE = type(threading.Lock())
_RAW_RLOCK_TYPE = type(threading.RLock())

#: Under the ``REPRO_TSAN=1`` CI job the *process default* is a real
#: sanitizer, so the disabled-path contract deliberately does not hold.
_TSAN_ACTIVE = os.environ.get("REPRO_TSAN", "") not in ("", "0")
_needs_disabled_default = pytest.mark.skipif(
    _TSAN_ACTIVE, reason="REPRO_TSAN active: the process default sanitizer is real"
)


# ---------------------------------------------------------------------------
# Disabled path: zero overhead by construction
# ---------------------------------------------------------------------------
@_needs_disabled_default
def test_default_sanitizer_is_null():
    assert isinstance(current_sanitizer(), NullSanitizer)
    assert current_sanitizer() is NULL_SANITIZER


@_needs_disabled_default
def test_disabled_factories_return_raw_primitives():
    assert type(new_lock("X")) is _RAW_LOCK_TYPE
    assert type(new_rlock("X")) is _RAW_RLOCK_TYPE
    assert type(new_condition(name="X")) is threading.Condition
    # A condition over an existing raw lock shares that exact mutex.
    raw = threading.Lock()
    cond = new_condition(raw, "X")
    assert type(cond) is threading.Condition
    assert cond._lock is raw  # noqa: SLF001 - pinning the sharing contract


def test_use_sanitizer_scopes_instrumentation_to_the_block():
    outer = current_sanitizer()
    san = LockOrderSanitizer()
    with use_sanitizer(san):
        assert current_sanitizer() is san
        assert isinstance(new_lock("A"), SanitizedLock)
        assert isinstance(new_condition(name="C"), SanitizedCondition)
    assert current_sanitizer() is outer


# ---------------------------------------------------------------------------
# Seeded violations are detected
# ---------------------------------------------------------------------------
def test_strict_abba_raises_at_the_closing_acquire():
    san = LockOrderSanitizer(strict=True)
    a, b = san.lock("A"), san.lock("B")
    with a:
        with b:
            pass  # establishes A -> B
    with b:
        with pytest.raises(LockOrderViolation) as exc:
            a.acquire()  # B -> A closes the cycle *before* blocking
    assert exc.value.details["kind"] == "lock-order-cycle"
    assert set(exc.value.details["cycle"]) >= {"A", "B"}


def test_nonstrict_abba_records_violation_and_flight_event():
    san = LockOrderSanitizer(strict=False)
    recorder = FlightRecorder(capacity=16)
    with use_flight_recorder(recorder):
        a, b = san.lock("A"), san.lock("B")
        with a:
            with b:
                pass
        with b:
            with a:  # recorded, not raised: execution continues
                pass
    kinds = [v["kind"] for v in san.violations]
    assert kinds == ["lock-order-cycle"]
    cycles = san.order_cycles()
    assert cycles and set(cycles[0]) == {"A", "B"}
    tsan_events = [e for e in recorder.events() if e["kind"] == "tsan"]
    assert tsan_events and tsan_events[0]["name"] == "analysis.tsan_violation"
    assert tsan_events[0]["violation"] == "lock-order-cycle"


def test_consistent_order_is_clean():
    san = LockOrderSanitizer(strict=True)
    a, b = san.lock("A"), san.lock("B")
    for _ in range(3):
        with a:
            with b:
                pass
    assert san.violations == []
    assert san.order_cycles() == []
    assert san.order_graph() == {"A": {"B"}}


def test_rlock_reentry_is_not_an_ordering_event():
    san = LockOrderSanitizer(strict=True)
    r = san.rlock("R")
    with r:
        with r:  # reentry must not self-edge or double-count the held-set
            assert san.held_sites() == ["R"]
    assert san.held_sites() == []
    assert san.violations == []


def test_plain_lock_reacquire_is_a_self_deadlock():
    # DESIGN.md's M11. The timeout stands in for the forever a real
    # re-acquire blocks, so a sanitizer that misses it fails, not hangs.
    san = LockOrderSanitizer(strict=False)
    lock = san.lock("MemoryTracker._lock")
    with lock:
        assert lock.acquire(timeout=0.5) is False
        assert san.held_sites() == ["MemoryTracker._lock"]
    assert [v["kind"] for v in san.violations] == ["self-deadlock"]
    assert san.violations[0]["acquiring"] == "MemoryTracker._lock"

    strict = LockOrderSanitizer(strict=True)
    lock = strict.lock("L")
    with lock:
        with pytest.raises(LockOrderViolation) as exc:
            lock.acquire(timeout=0.5)  # raised before blocking
    assert exc.value.details["kind"] == "self-deadlock"
    assert strict.held_sites() == []


def test_wait_while_holding_foreign_lock_is_flagged():
    san = LockOrderSanitizer(strict=False)
    outer = san.lock("outer")
    cv = san.condition(name="cv")
    with outer:
        with cv:
            cv.wait(timeout=0.01)
    assert [v["kind"] for v in san.violations] == ["wait-while-holding"]
    assert san.violations[0]["holding"] == ["outer"]


def test_wait_holding_only_the_conditions_own_lock_is_clean():
    san = LockOrderSanitizer(strict=True)
    mutex = san.lock("Holder._lock")
    cv = san.condition(mutex, "Holder._cond")
    with cv:
        cv.wait(timeout=0.01)
    assert san.violations == []
    assert san.held_sites() == []  # wait's release/re-acquire stayed exact


def test_condvar_wakeup_across_threads_keeps_held_sets_exact():
    san = LockOrderSanitizer(strict=True)
    mutex = san.lock("M")
    cv = san.condition(mutex, "C")
    ready = []

    def waiter():
        with cv:
            cv.wait_for(lambda: bool(ready), timeout=5.0)

    t = threading.Thread(target=waiter)
    t.start()
    with cv:
        ready.append(1)
        cv.notify_all()
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert san.violations == []


def test_condition_over_raw_preactivation_lock_degrades_gracefully():
    san = LockOrderSanitizer()
    raw = threading.Lock()
    cond = san.condition(raw, "legacy")
    assert type(cond) is threading.Condition  # correct, just uninstrumented


def test_release_of_preinstrumentation_lock_is_tolerated():
    san = LockOrderSanitizer(strict=True)
    lock = san.lock("L")
    lock._inner.acquire()  # acquired before the wrapper was watching
    lock.release()  # must not KeyError or underflow the held-set
    assert san.held_sites() == []


def test_report_summarizes_counts_and_violations():
    san = LockOrderSanitizer(strict=False, name="t")
    a, b = san.lock("A"), san.lock("B")
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    text = san.report()
    assert "1 violation(s)" in text
    assert "lock-order-cycle" in text
    assert san.acquisitions == 4


# ---------------------------------------------------------------------------
# Process-start activation via REPRO_TSAN
# ---------------------------------------------------------------------------
_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _probe(env_value: str, code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=_SRC, REPRO_TSAN=env_value)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


def test_repro_tsan_env_installs_process_wide_sanitizer():
    proc = _probe("1", (
        "from repro.analysis.sanitizer import current_sanitizer, new_lock, SanitizedLock\n"
        "san = current_sanitizer()\n"
        "assert type(san).__name__ == 'LockOrderSanitizer', san\n"
        "assert not san.strict\n"
        "assert isinstance(new_lock('x'), SanitizedLock)\n"
        "import threading\n"
        "def worker(out):\n"
        "    out.append(isinstance(new_lock('y'), SanitizedLock))\n"
        "out = []\n"
        "t = threading.Thread(target=worker, args=(out,)); t.start(); t.join()\n"
        "assert out == [True]  # default is process-wide, not thread-local\n"
    ))
    assert proc.returncode == 0, proc.stderr


def test_repro_tsan_strict_mode_raises_in_subprocess():
    proc = _probe("strict", (
        "from repro.analysis.sanitizer import current_sanitizer, LockOrderViolation\n"
        "san = current_sanitizer()\n"
        "assert san.strict\n"
        "a, b = san.lock('A'), san.lock('B')\n"
        "with a:\n"
        "    with b: pass\n"
        "try:\n"
        "    with b:\n"
        "        a.acquire()\n"
        "except LockOrderViolation:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    ))
    assert proc.returncode == 0, proc.stderr


def test_repro_tsan_off_keeps_null_default():
    proc = _probe("0", (
        "from repro.analysis.sanitizer import current_sanitizer, NullSanitizer\n"
        "assert isinstance(current_sanitizer(), NullSanitizer)\n"
    ))
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# Framework integration: an instrumented serving engine stays correct
# ---------------------------------------------------------------------------
def test_serving_condvar_runs_instrumented_without_violations():
    """``InferenceEngine._cv`` (lock + condition, built through the factories)
    hands queries and an update batch between this thread and the dispatcher."""
    import numpy as np

    from repro.graph import DTDG, GPMAGraph
    from repro.serve import InferenceEngine, random_update_batches
    from repro.train import STGraphNodeRegressor

    rng = np.random.default_rng(0)
    n = 24
    keys = np.unique(rng.integers(0, n * n, 90))
    keys = keys[keys // n != keys % n]
    dtdg = DTDG([(keys // n, keys % n)], num_nodes=n)
    feats = rng.standard_normal((n, 4)).astype(np.float32)
    san = LockOrderSanitizer(strict=True)
    with use_sanitizer(san):
        engine = InferenceEngine(STGraphNodeRegressor(4, 6), GPMAGraph(dtdg), feats)
    (batch,) = random_update_batches(dtdg, 1, seed=0)
    with engine:
        first = engine.query(3)
        engine.enqueue_update(batch, timeout=5.0)  # waits on _cv until applied
        second = engine.query(3)
    assert first.served_from == "forward" and second.version > first.version
    assert san.violations == []
    assert san.acquisitions > 0


# ---------------------------------------------------------------------------
# Seeded mutations of the shipped sources that only this half catches
# ---------------------------------------------------------------------------
def _mutant(module_name: str, edits: list[tuple[str, str]]) -> types.ModuleType:
    """The shipped module's source with ``old -> new`` edits, executed as a
    fresh module."""
    module = importlib.import_module(module_name)
    source = inspect.getsource(module)
    for old, new in edits:
        assert source.count(old) == 1, "the mutation no longer applies: update it with the code"
        source = source.replace(old, new)
    mutant = types.ModuleType(module_name)
    exec(compile(source, module.__file__, "exec"), mutant.__dict__)  # noqa: S102
    return mutant


#: A pending-updates count set under ``_cv`` and its own lock in
#: ``enqueue_update`` (``_cv -> InferenceEngine._pending_lock``), and
#: ``_apply_update`` taking that lock around ``_cv``: the two orders close a
#: cycle.
_PENDING_LOCK_AROUND_CV = [
    ("from repro.analysis.sanitizer import new_condition\n",
     "from repro.analysis.sanitizer import new_condition, new_lock\n"),
    ('        self._cv = new_condition(name="InferenceEngine._cv")\n',
     '        self._cv = new_condition(name="InferenceEngine._cv")\n'
     '        self._pending_lock = new_lock("InferenceEngine._pending_lock")\n'
     "        self._pending_updates = 0\n"),
    ("            self._update_queue.append((seq, update))\n",
     "            self._update_queue.append((seq, update))\n"
     "            with self._pending_lock:\n"
     "                self._pending_updates = len(self._update_queue)\n"),
    ("        with self._cv:\n"
     "            self._applied_seq = seq\n"
     "            self._applied_version = version\n"
     "            self._cv.notify_all()\n",
     "        with self._pending_lock:\n"
     "            with self._cv:\n"
     "                self._applied_seq = seq\n"
     "                self._applied_version = version\n"
     "                self._cv.notify_all()\n"),
]

#: ``flush`` serializes flushers with a second lock held across the ``_cv``
#: wait inside its helper (the static lint reports it too).
_FLUSH_LOCK = [
    ("from repro.analysis.sanitizer import new_condition\n",
     "from repro.analysis.sanitizer import new_condition, new_lock\n"),
    ('        self._cv = new_condition(name="InferenceEngine._cv")\n',
     '        self._cv = new_condition(name="InferenceEngine._cv")\n'
     '        self._flush_lock = new_lock("InferenceEngine._flush_lock")\n'),
    ("        with self._cv:\n"
     "            seq = self._ingest_seq\n",
     "        with self._flush_lock, self._cv:\n"
     "            seq = self._ingest_seq\n"),
]


@pytest.mark.parametrize("mutation,kind", [
    (None, None),
    (_PENDING_LOCK_AROUND_CV, "lock-order-cycle"),
    (_FLUSH_LOCK, "wait-while-holding"),
], ids=["shipped", "gauge-lock-around-cv", "flush-lock-around-wait"])
def test_serving_engine_mutations_are_caught_live(mutation, kind):
    """A query whose forward is held open, an update batch queued behind it,
    and a ``flush`` that has to wait for it."""
    import numpy as np

    from repro.graph import DTDG, GPMAGraph
    from repro.serve import random_update_batches
    from repro.train import STGraphNodeRegressor

    engine_module = _mutant("repro.serve.engine", mutation or [])

    class Gated:
        def __init__(self, model):
            self.model, self.entered, self.gate = model, threading.Event(), threading.Event()

        def step(self, executor, x, state):
            self.entered.set()
            assert self.gate.wait(5.0)
            return self.model.step(executor, x, state)

    rng = np.random.default_rng(0)
    n = 24
    keys = np.unique(rng.integers(0, n * n, 90))
    keys = keys[keys // n != keys % n]
    dtdg = DTDG([(keys // n, keys % n)], num_nodes=n)
    feats = rng.standard_normal((n, 4)).astype(np.float32)
    model = Gated(STGraphNodeRegressor(4, 6))
    san = LockOrderSanitizer(strict=False)
    with use_sanitizer(san):
        engine = engine_module.InferenceEngine(model, GPMAGraph(dtdg), feats)
    (batch,) = random_update_batches(dtdg, 1, seed=0)
    with engine:
        client = threading.Thread(target=engine.query, args=(3,))
        client.start()
        assert model.entered.wait(5.0)  # the dispatcher is inside the forward
        engine.enqueue_update(batch, wait=False)
        threading.Timer(0.05, model.gate.set).start()
        engine.flush(timeout=5.0)
        client.join(timeout=5.0)
    assert not client.is_alive()
    assert [v["kind"] for v in san.violations][:1] == ([kind] if kind else [])


def test_plan_cache_read_under_the_totals_lock_is_caught_live(monkeypatch):
    """``LiveTotals.read`` snapshotting the plan cache under its own lock: the
    reverse of ``PlanCache._lock -> LiveTotals._lock``, which ``span()`` takes
    through the device when a thread's first record is a plan build."""
    from repro.compiler.plan import PlanCache, plan_cache
    from repro.device import Device, use_device

    spine = _mutant("repro.obs.spine", [(
        "        with self._lock:\n"
        "            cells = list(self._cells)\n",
        "        from repro.compiler.plan import plan_cache\n"
        "\n"
        "        with self._lock:\n"
        "            cells = list(self._cells)\n"
        "            self.plan_stats = plan_cache().stats()\n",
    )])
    san = LockOrderSanitizer(strict=False)
    with use_sanitizer(san):
        monkeypatch.setattr("repro.compiler.plan._PLAN_CACHE", PlanCache())
        device = Device(name="mutant-totals")
        device.totals = spine.LiveTotals()

    def build():
        with use_device(device):
            plan_cache().get_or_build(lambda v: v.agg_sum(lambda nb: nb.h), feature_widths={"h": "v"})

    worker = threading.Thread(target=build)
    worker.start()
    worker.join(timeout=30.0)
    assert not worker.is_alive()
    device.totals.read()
    assert [v["kind"] for v in san.violations] == ["lock-order-cycle"]
    assert set(san.violations[0]["cycle"]) == {"PlanCache._lock", "LiveTotals._lock"}
