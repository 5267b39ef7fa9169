"""Runtime lock-order sanitizer: violations are caught live, off costs zero.

Mirrors the seeded-bug discipline of the static suite
(``tests/test_analysis_lockcheck.py``): each violation kind is provoked
with a tiny real interleaving and must be detected, and the disabled path
is pinned to return *raw* ``threading`` primitives so the framework's hot
paths pay nothing when ``REPRO_TSAN`` is off.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
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
