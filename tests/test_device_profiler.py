"""Phase accounting of the device totals (Figure 9's instrument).

These cases used to drive ``device/profiler.py``; the profiler is gone and
the same contracts — nesting, siblings, exceptions, reset, reset inside an
open interval — now hold for the telemetry spine's always-on totals
(``device.totals``), recorded through ``span`` / ``emit``.
"""

from __future__ import annotations

import time

import pytest

from repro.obs import COUNTERS, emit, span

# Real rows of the site table, picked for their categories.
OUTER = "train.epoch"  # cat train
INNER = "core.engine_forward"  # cat gnn
SIBLING = "core.begin_timestamp"  # cat graph_update


def test_single_phase_accumulates(fresh_device):
    for _ in range(2):
        with span(INNER):
            time.sleep(0.01)
    totals = fresh_device.totals.read()
    assert totals.seconds("gnn") >= 0.02
    assert totals.calls(INNER) == 2
    assert totals.site_totals[INNER][1] >= 0.02


def test_unknown_phase_zero(fresh_device):
    totals = fresh_device.totals.read()
    assert totals.seconds("nope") == 0.0
    assert totals.calls("nope") == 0
    assert totals.count("nope") == 0
    with pytest.raises(KeyError):
        span("not.a.site")  # a typo fails at the call site, not silently


def test_nested_phases_attributed_once(fresh_device):
    """Inner interval time must not be double counted in the outer category."""
    with span(OUTER):
        time.sleep(0.02)
        with span(INNER):
            time.sleep(0.04)
        time.sleep(0.02)
    totals = fresh_device.totals.read()
    outer, inner = totals.seconds("train"), totals.seconds("gnn")
    assert inner >= 0.04
    assert outer >= 0.04 * 0.9  # own time only (two 0.02 sleeps)
    # The key invariant: outer does NOT include inner's 0.04s.
    assert outer < 0.04 + 0.04 + 0.02
    assert outer + inner == pytest.approx(0.08, abs=0.04)
    # ...while the per-site view stays inclusive.
    assert totals.site_totals[OUTER][1] >= 0.08


def test_breakdown_sums_to_one(fresh_device):
    """Self seconds partition the root interval: the shares sum to 1."""
    with span(OUTER):
        with span(INNER):
            time.sleep(0.01)
        with span(SIBLING):
            time.sleep(0.03)
    totals = fresh_device.totals.read()
    root = totals.site_totals[OUTER][1]
    frac = {cat: seconds / root for cat, seconds in totals.cat_seconds.items()}
    assert abs(sum(frac.values()) - 1.0) < 1e-9
    assert frac["graph_update"] > frac["gnn"]


def test_reset(fresh_device):
    with span(INNER):
        pass
    fresh_device.reset()
    totals = fresh_device.totals.read()
    assert totals.seconds("gnn") == 0.0
    assert totals.cat_seconds == {} and totals.site_totals == {}


def test_exception_inside_phase_still_recorded(fresh_device):
    with pytest.raises(ValueError):
        with span(INNER):
            raise ValueError("boom")
    assert fresh_device.totals.read().calls(INNER) == 1


def test_event_counters(fresh_device):
    emit("graph.csr_cache_hits")
    emit("graph.csr_cache_hits", 2)
    totals = fresh_device.totals.read()
    assert totals.count("csr_cache_hits") == 3
    assert totals.calls("graph.csr_cache_hits") == 3
    assert totals.count("never_counted") == 0
    snapshot = totals.counters()
    assert set(snapshot) == set(COUNTERS)
    assert snapshot["csr_cache_hits"] == 3


def test_sibling_phases_inside_outer(fresh_device):
    with span(OUTER):
        with span(INNER):
            time.sleep(0.01)
        with span(SIBLING):
            time.sleep(0.01)
    totals = fresh_device.totals.read()
    assert totals.calls(INNER) == 1 and totals.calls(SIBLING) == 1
    assert totals.calls(OUTER) == 1


def test_reset_clears_adhoc_counters_and_timers(fresh_device):
    """Regression: reset() must clear *every* counter, including events of
    sites that feed no framework counter, and the phase timers with them."""
    with span(INNER):
        pass
    emit("graph.csr_cache_hits", 2)
    emit("core.state_pop", 5)  # counted per site only: no COUNTERS entry
    totals = fresh_device.totals.read()
    assert totals.event_counts == {"csr_cache_hits": 2}
    assert totals.calls("core.state_pop") == 5
    fresh_device.totals.reset()
    totals = fresh_device.totals.read()
    assert totals.event_counts == {}
    assert totals.count("csr_cache_hits") == 0
    assert totals.calls("core.state_pop") == 0
    assert totals.seconds("gnn") == 0.0 and totals.calls(INNER) == 0


def test_reset_inside_open_phase_does_not_crash(fresh_device):
    """Regression: reset() while an interval is still open used to leave the
    context's exit popping an empty stack (IndexError)."""
    with span(OUTER):
        with span(INNER):
            fresh_device.totals.reset()
    # The discarded intervals are dropped, not recorded.
    totals = fresh_device.totals.read()
    assert totals.calls(INNER) == 0 and totals.calls(OUTER) == 0
    # The totals are fully usable afterwards.
    with span(SIBLING):
        pass
    assert fresh_device.totals.read().calls(SIBLING) == 1
