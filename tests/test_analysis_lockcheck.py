"""The lock-discipline static analyzer: seeded bugs caught, clean code clean.

Mirrors ``tests/test_compiler_verify.py``: every STG2xx code in the
diagnostics registry is provoked by at least one seeded-bug source here,
and a meta-test pins the mutation table to the ``CONCURRENCY_CODES``
registry slice so adding a code without a triggering test fails the suite.
The repo gate test at the bottom runs the real analyzer over the installed
``repro`` sources against the committed baseline — the same check the
``repro lint --concurrency`` CI step performs.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import repro
from repro.analysis.lockcheck import (
    BaselineEntry,
    analyze_path,
    analyze_source,
    apply_baseline,
    default_baseline_path,
    load_baseline,
    write_baseline,
)
from repro.compiler.diagnostics import CODES, CONCURRENCY_CODES


# ---------------------------------------------------------------------------
# Seeded-bug sources, one per code
# ---------------------------------------------------------------------------
_ABBA = """
import threading

class Pair:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def ab(self):
        with self._a:
            with self._b:
                pass

    def ba(self):
        with self._b:
            with self._a:
                pass
"""

_ABBA_TRANSITIVE = """
import threading

class Pair:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def _grab_b(self):
        with self._b:
            pass

    def ab(self):
        with self._a:
            self._grab_b()

    def ba(self):
        with self._b:
            with self._a:
                pass
"""

_UNGUARDED_WRITE = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1

    def reset(self):
        self.count = 0
"""

_SUPPRESSED_WRITE = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1

    def reset(self):
        self.count = 0  # lockcheck: ok(reset is documented single-threaded)
"""

_BARE_ACQUIRE = """
import threading

class Leaky:
    def __init__(self):
        self._lock = threading.Lock()

    def bad(self):
        self._lock.acquire()
        self.work()
        self._lock.release()

    def work(self):
        pass
"""

_ACQUIRE_WITH_FINALLY = """
import threading

class Careful:
    def __init__(self):
        self._lock = threading.Lock()

    def good(self):
        self._lock.acquire()
        try:
            self.work()
        finally:
            self._lock.release()

    def work(self):
        pass
"""

_BLOCKING_UNDER_LOCK = """
import threading
import time

class Slow:
    def __init__(self):
        self._lock = threading.Lock()

    def nap(self):
        with self._lock:
            time.sleep(1)
"""

_CONDVAR_OWN_WAIT = """
import threading

class Waiter:
    def __init__(self):
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)

    def wait_ready(self):
        with self._cv:
            self._cv.wait()
"""

#: the serving engine's shape: the wait sits in a helper the callers enter
#: holding the condition; ``flush_serialized`` also holds a foreign lock.
_CONDVAR_WAIT_BEHIND_HELPER = """
import threading

class Queue:
    def __init__(self):
        self._cv = threading.Condition()
        self._flush_lock = threading.Lock()
        self.applied = 0

    def enqueue(self, seq):
        with self._cv:
            self._await_locked(seq)

    def flush_serialized(self, seq):
        with self._flush_lock, self._cv:
            self._await_locked(seq)

    def _await_locked(self, seq):
        while self.applied < seq:
            self._cv.wait()
"""

_FACTORY_STYLE = """
from repro.analysis.sanitizer import new_condition, new_lock

class Staged:
    def __init__(self):
        self._lock = new_lock("Staged._lock")
        self._cond = new_condition(self._lock, "Staged._cond")
        self.items = []

    def push(self, item):
        with self._lock:
            self.items = self.items + [item]
            self._cond.notify_all()
"""


def _codes(source: str) -> set[str]:
    return analyze_source(source, module="mod").codes()


def _mutate_stg201():
    return analyze_source(_ABBA, module="mod")


def _mutate_stg202():
    return analyze_source(_UNGUARDED_WRITE, module="mod")


def _mutate_stg203():
    return analyze_source(_BARE_ACQUIRE, module="mod")


def _mutate_stg204():
    return analyze_source(_BLOCKING_UNDER_LOCK, module="mod")


_MUTATIONS = {
    "STG201": _mutate_stg201,
    "STG202": _mutate_stg202,
    "STG203": _mutate_stg203,
    "STG204": _mutate_stg204,
}


@pytest.mark.parametrize("code", sorted(_MUTATIONS))
def test_mutation_triggers_code(code):
    report = _MUTATIONS[code]()
    assert code in report.codes(), report.render()
    expected_severity = CODES[code][0]
    assert any(d.severity == expected_severity for d in report.diagnostics if d.code == code)


def test_every_concurrency_code_has_a_mutation():
    assert set(_MUTATIONS) == set(CONCURRENCY_CODES)
    # and the family is actually registered with the diagnostics registry
    assert CONCURRENCY_CODES <= set(CODES)


# ---------------------------------------------------------------------------
# Precision: the analyzer stays quiet on disciplined code
# ---------------------------------------------------------------------------
def test_abba_cycle_found_through_the_call_graph():
    report = analyze_source(_ABBA_TRANSITIVE, module="mod")
    assert "STG201" in report.codes(), report.render()


def test_abba_diagnostic_names_both_sites():
    report = _mutate_stg201()
    [diag] = [d for d in report.diagnostics if d.code == "STG201"]
    assert "Pair._a" in diag.message and "Pair._b" in diag.message
    assert "at mod.Pair.ab" in diag.message  # provenance: where each edge came from
    assert diag.where.startswith("cycle:")


def test_consistent_lock_order_is_clean():
    source = _ABBA.replace(
        "    def ba(self):\n        with self._b:\n            with self._a:",
        "    def ba(self):\n        with self._a:\n            with self._b:",
    )
    assert "STG201" not in _codes(source)


def test_suppression_comment_silences_stg202():
    assert "STG202" in _codes(_UNGUARDED_WRITE)
    assert "STG202" not in _codes(_SUPPRESSED_WRITE)


def test_init_writes_do_not_count_as_unguarded():
    # __init__ publishes the object; its unguarded writes are the norm.
    source = _UNGUARDED_WRITE.replace(
        "    def reset(self):\n        self.count = 0\n", ""
    )
    assert "STG202" not in _codes(source)


def test_acquire_with_try_finally_is_clean():
    assert "STG203" in _codes(_BARE_ACQUIRE)
    assert "STG203" not in _codes(_ACQUIRE_WITH_FINALLY)


def test_condvar_wait_under_own_lock_is_clean():
    # Condition(self._lock) canonicalizes to the same mutex; waiting while
    # holding only it is the intended pattern, not STG204.
    assert "STG204" not in _codes(_CONDVAR_OWN_WAIT)


def test_condvar_wait_behind_a_helper_is_judged_by_the_callers_locks():
    """Holding only the condition across a helper that waits on it is the
    condvar pattern; holding any other lock across the same call is not."""
    findings = {
        d.where for d in analyze_source(_CONDVAR_WAIT_BEHIND_HELPER, module="mod").diagnostics
        if d.code == "STG204"
    }
    assert "mod.Queue.enqueue" not in findings
    assert findings == {"mod.Queue.flush_serialized"}


def test_sanitizer_factory_locks_are_discovered():
    report = analyze_source(_FACTORY_STYLE, module="mod")
    assert report.codes() == set()
    # seed a bug through the factory-created lock to prove it was modeled
    bugged = _FACTORY_STYLE + """
    def read(self):
        self.items = []
"""
    assert "STG202" in _codes(bugged)


# ---------------------------------------------------------------------------
# Baseline workflow
# ---------------------------------------------------------------------------
def test_baseline_round_trip_suppresses_known_findings(tmp_path):
    report = analyze_source(_UNGUARDED_WRITE, module="mod")
    path = tmp_path / "baseline.json"
    entries = write_baseline(report, path, justification="known benign")
    assert len(entries) == 1
    assert entries[0].code == "STG202"
    new, baselined, unused = apply_baseline(
        analyze_source(_UNGUARDED_WRITE, module="mod"), load_baseline(path)
    )
    assert new.codes() == set()
    assert [d.code for d in baselined] == ["STG202"]
    assert unused == []


def test_baseline_preserves_existing_justifications(tmp_path):
    report = analyze_source(_UNGUARDED_WRITE, module="mod")
    path = tmp_path / "baseline.json"
    write_baseline(report, path, justification="the triage note")
    # regenerating with the TODO default must not erase the note
    [entry] = write_baseline(report, path)
    assert entry.justification == "the triage note"


def test_stale_baseline_entries_are_reported_not_gating(tmp_path):
    stale = [BaselineEntry(code="STG203", where="mod.Gone.bad", justification="x")]
    new, baselined, unused = apply_baseline(
        analyze_source(_CONDVAR_OWN_WAIT, module="mod"), stale
    )
    assert new.codes() == set()
    assert baselined == []
    assert unused == stale


def test_missing_baseline_file_is_an_empty_baseline(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == []


# ---------------------------------------------------------------------------
# Seeded mutations of the shipped sources that the analyzer catches
# ---------------------------------------------------------------------------
#: name -> (module, old text, mutated text, expected code, finding's ``where``);
#: the runtime half's catches are in ``tests/test_analysis_sanitizer.py`` and
#: the whole table, misses included, is in DESIGN.md ("One lock checker, or
#: two").
_REAL_MUTATIONS = {
    "manual_add-drops-its-lock": (
        "repro.device.allocator",
        "        with self._lock:\n"
        "            alloc_id = self._next_id\n"
        "            self._next_id += 1\n"
        "            self._live[alloc_id] = AllocationRecord(int(nbytes), tag, alloc_id)\n"
        "            self._account_add(int(nbytes), tag)\n"
        "            return alloc_id\n",
        "        alloc_id = self._next_id\n"
        "        self._next_id += 1\n"
        "        self._live[alloc_id] = AllocationRecord(int(nbytes), tag, alloc_id)\n"
        "        self._account_add(int(nbytes), tag)\n"
        "        return alloc_id\n",
        "STG202", "repro.device.allocator.MemoryTracker.manual_add",
    ),
    "stop-writes-_stopping-outside-_cv": (
        "repro.serve.engine",
        "        with self._cv:\n"
        "            thread = self._thread\n"
        "            self._stopping = True\n",
        "        self._stopping = True\n"
        "        with self._cv:\n"
        "            thread = self._thread\n",
        "STG202", "repro.serve.engine.InferenceEngine.stop",
    ),
    "stop-joins-under-_cv": (
        "repro.serve.engine",
        "            self._cv.notify_all()\n"
        "        if thread is None:\n"
        "            return\n"
        "        thread.join(timeout=_JOIN_TIMEOUT)\n",
        "            self._cv.notify_all()\n"
        "            if thread is None:\n"
        "                return\n"
        "            thread.join(timeout=_JOIN_TIMEOUT)\n",
        "STG204", "repro.serve.engine.InferenceEngine.stop",
    ),
    "progress-update-bare-acquire": (
        "repro.obs.server",
        "        with self._lock:\n"
        "            self._data.update(fields)\n",
        "        self._lock.acquire()\n"
        "        self._data.update(fields)\n"
        "        self._lock.release()\n",
        "STG203", "repro.obs.server.TrainingProgress.update",
    ),
    "plan-cache-lock-free-hit-path": (
        "repro.compiler.plan",
        "        with self._lock:\n"
        "            plan = self._plans.get(key)\n",
        "        plan = self._plans.get(key)\n"
        "        if plan is not None:\n"
        "            self.hits += 1\n"
        "            return plan\n"
        "        with self._lock:\n"
        "            plan = self._plans.get(key)\n",
        "STG202", "repro.compiler.plan.PlanCache.get_or_build",
    ),
}


@pytest.mark.parametrize("name", sorted(_REAL_MUTATIONS))
def test_seeded_mutation_of_the_shipped_source_is_reported(name):
    module, old, new, code, where = _REAL_MUTATIONS[name]
    source = Path(importlib.import_module(module).__file__).read_text(encoding="utf-8")
    assert source.count(old) == 1, "the mutation no longer applies: update it with the code"

    def findings(text):
        return {(d.code, d.where) for d in analyze_source(text, module=module).diagnostics}

    assert (code, where) not in findings(source)
    assert (code, where) in findings(source.replace(old, new))


def test_flush_lock_held_across_the_helper_wait_is_reported():
    """DESIGN.md's M7: ``flush`` holds a second lock across the ``_cv`` wait
    inside ``_await_applied_locked``.  The shipped ``flush`` holds only
    ``_cv`` there and is clean; the mutant is STG204."""
    module = "repro.serve.engine"
    source = Path(importlib.import_module(module).__file__).read_text(encoding="utf-8")
    where = "repro.serve.engine.InferenceEngine.flush"

    def findings(text):
        return {(d.code, d.where) for d in analyze_source(text, module=module).diagnostics}

    assert ("STG204", where) not in findings(source)
    for old, new in [
        ("from repro.analysis.sanitizer import new_condition\n",
         "from repro.analysis.sanitizer import new_condition, new_lock\n"),
        ('        self._cv = new_condition(name="InferenceEngine._cv")\n',
         '        self._cv = new_condition(name="InferenceEngine._cv")\n'
         '        self._flush_lock = new_lock("InferenceEngine._flush_lock")\n'),
        ("        with self._cv:\n            seq = self._ingest_seq\n",
         "        with self._flush_lock, self._cv:\n            seq = self._ingest_seq\n"),
    ]:
        assert source.count(old) == 1, "the mutation no longer applies: update it with the code"
        source = source.replace(old, new)
    assert ("STG204", where) in findings(source)


# ---------------------------------------------------------------------------
# The repo gate: the shipped sources are clean against the shipped baseline
# ---------------------------------------------------------------------------
def test_repro_sources_are_clean_against_committed_baseline():
    root = Path(repro.__file__).resolve().parent
    report = analyze_path(root)
    baseline = load_baseline(default_baseline_path())
    new, _baselined, unused = apply_baseline(report, baseline)
    assert new.codes() == set(), new.render()
    assert unused == [], f"stale baseline entries: {unused}"


def test_committed_baseline_entries_all_carry_justifications():
    for entry in load_baseline(default_baseline_path()):
        assert entry.justification
        assert not entry.justification.startswith("TODO"), entry
