"""Shared fixtures: every test runs on a fresh simulated device so memory
accounting and kernel caches never leak between tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.device import Device, use_device


@pytest.fixture(autouse=True)
def fresh_device():
    device = Device(name="test")
    with use_device(device):
        yield device


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def compile_cost(fresh_device, monkeypatch):
    """``cost(build) -> (plan-cache misses, kernel compilations)`` added by
    ``build()``, against a cold plan cache that is private to the test."""
    from repro.compiler.plan import PlanCache, plan_cache

    monkeypatch.setattr("repro.compiler.plan._PLAN_CACHE", PlanCache())

    def cost(build):
        before = plan_cache().misses, fresh_device.launcher.compile_count
        build()
        return plan_cache().misses - before[0], fresh_device.launcher.compile_count - before[1]

    return cost


def pytest_sessionfinish(session, exitstatus):
    """The ``REPRO_TSAN=1`` CI gate: any runtime lock-discipline violation
    observed during the run fails the session, even if every test passed."""
    from repro.analysis.sanitizer import current_sanitizer

    sanitizer = current_sanitizer()
    if not getattr(sanitizer, "enabled", False):
        return
    cycles = sanitizer.order_cycles()
    print("\n" + sanitizer.report())
    if sanitizer.violations or cycles:
        session.exitstatus = 1
