"""Deterministic fault injection: plans, sites, and injector semantics."""

from __future__ import annotations

import pytest

from repro.resilience import (
    BOUNDARY,
    FAULT_KINDS,
    NULL_INJECTOR,
    FaultInjector,
    FaultPlan,
    FaultSite,
    InjectedCacheCorruption,
    InjectedFault,
    InjectedKernelFault,
    InjectedOOM,
    SimulatedKill,
    current_injector,
    named_plan,
    use_fault_plan,
)


def _armed(site: FaultSite, name: str = "t") -> FaultInjector:
    return FaultInjector(FaultPlan(name=name, sites=[site]))


def test_plan_json_roundtrip(tmp_path):
    plan = FaultPlan(
        name="roundtrip", seed=42,
        sites=[
            FaultSite(kind="kernel", epoch=0, sequence=1, timestamp=4, times=2),
            FaultSite(kind="kill", epoch=None, sequence=None, timestamp=BOUNDARY),
            FaultSite(kind="oom"),  # full wildcard
        ],
    )
    path = plan.to_json(tmp_path / "plan.json")
    restored = FaultPlan.from_json(path)
    assert restored.to_dict() == plan.to_dict()
    # fired counters are runtime state, never serialized
    assert all(s.fired == 0 for s in restored.sites)


def test_unknown_site_fields_rejected():
    with pytest.raises(ValueError, match="unknown fault-site fields"):
        FaultSite.from_dict({"kind": "oom", "after_step": 3})
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSite(kind="meteor")
    with pytest.raises(ValueError, match="times"):
        FaultSite(kind="oom", times=0)


def test_random_plan_is_deterministic():
    a = FaultPlan.random(seed=7)
    b = FaultPlan.random(seed=7)
    assert a.to_dict() == b.to_dict()
    assert FaultPlan.random(seed=8).to_dict() != a.to_dict()


def test_each_kind_raises_its_exception():
    expected = {
        "oom": InjectedOOM,
        "kernel": InjectedKernelFault,
        "cache": InjectedCacheCorruption,
        "kill": SimulatedKill,
    }
    assert set(expected) == set(FAULT_KINDS)
    for kind, exc in expected.items():
        injector = _armed(FaultSite(kind=kind))
        with pytest.raises(exc):
            injector.fire(kind)
    # OOM doubles as MemoryError so generic OOM handling catches it...
    assert issubclass(InjectedOOM, MemoryError)
    assert issubclass(InjectedKernelFault, InjectedFault)
    # ...while a kill, like SIGKILL, escapes `except Exception` recovery.
    assert not issubclass(SimulatedKill, Exception)
    assert issubclass(SimulatedKill, BaseException)


def test_take_consumes_without_raising():
    injector = _armed(FaultSite(kind="cache"))
    site = injector.take("cache")
    assert site is not None and site.fired == 1
    assert injector.take("cache") is None  # consumed
    assert injector.faults_injected() == {"cache": 1}
    assert injector.exhausted()


def test_cursor_matching_and_wildcards():
    injector = _armed(FaultSite(kind="oom", epoch=1, sequence=None, timestamp=3))
    injector.at_epoch(0)
    injector.at_sequence(0)
    injector.at_timestamp(3)
    assert injector.take("oom") is None  # wrong epoch
    injector.at_epoch(1)
    injector.at_sequence(7)  # wildcard sequence: any value matches
    injector.at_timestamp(2)
    assert injector.take("oom") is None  # wrong timestamp
    injector.at_timestamp(3)
    assert injector.take("oom") is not None
    assert injector.fired == [{"kind": "oom", "epoch": 1, "sequence": 7, "timestamp": 3}]


def test_at_epoch_resets_inner_cursor():
    injector = _armed(FaultSite(kind="oom", timestamp=3))
    injector.at_epoch(0)
    injector.at_sequence(1)
    injector.at_timestamp(3)
    injector.at_epoch(1)  # new epoch: sequence/timestamp cursors cleared
    assert injector.sequence is None and injector.timestamp is None
    assert injector.take("oom") is None  # timestamp=3 does not match None


def test_boundary_sentinel_matches_only_boundary():
    injector = _armed(FaultSite(kind="kill", timestamp=BOUNDARY))
    injector.at_epoch(0)
    injector.at_sequence(0)
    for t in range(4):
        injector.at_timestamp(t)
        injector.fire("kill")  # never armed mid-sequence
    injector.at_timestamp(BOUNDARY)
    with pytest.raises(SimulatedKill):
        injector.fire("kill")


def test_times_bounds_firings():
    injector = _armed(FaultSite(kind="kernel", times=2))
    with pytest.raises(InjectedKernelFault):
        injector.fire("kernel")
    assert not injector.exhausted()
    with pytest.raises(InjectedKernelFault):
        injector.fire("kernel")
    injector.fire("kernel")  # out of charges: silent no-op
    assert injector.faults_injected() == {"kernel": 2}
    assert injector.exhausted()


def test_firings_count_on_device_profiler(fresh_device):
    injector = _armed(FaultSite(kind="cache", times=3))
    with use_fault_plan(injector):
        injector.take("cache")
        injector.take("cache")
    assert fresh_device.totals.read().count("faults_injected") == 2


def test_context_stack_mirrors_tracer_pattern():
    assert current_injector() is NULL_INJECTOR
    plan = FaultPlan(name="outer", sites=[FaultSite(kind="oom")])
    with use_fault_plan(plan) as outer:
        assert current_injector() is outer and outer.enabled
        with use_fault_plan(None):  # explicit None keeps injection off
            assert current_injector() is NULL_INJECTOR
        assert current_injector() is outer
        # A prepared injector passes through (resume keeps consumed sites).
        with use_fault_plan(outer) as again:
            assert again is outer
    assert current_injector() is NULL_INJECTOR


def test_null_injector_is_inert():
    assert not NULL_INJECTOR.enabled
    NULL_INJECTOR.fire("kill")  # never raises
    assert NULL_INJECTOR.take("oom") is None
    assert NULL_INJECTOR.faults_injected() == {}


def test_named_plans_resolve():
    smoke = named_plan("smoke")
    assert smoke.name == "smoke"
    assert any(s.kind == "kernel" and s.times >= 2 for s in smoke.sites)
    assert any(s.kind == "kill" for s in smoke.sites)
    matrix = named_plan("kill-matrix")
    kills = [s for s in matrix.sites if s.kind == "kill"]
    assert len(kills) >= 3 and all(s.timestamp == BOUNDARY for s in kills)
    with pytest.raises(KeyError, match="smoke"):
        named_plan("nope")
