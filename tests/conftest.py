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
def compile_cost(monkeypatch):
    """``cost(build) -> plan-cache misses`` added by ``build()``, against a
    cold plan cache that is private to the test (a miss compiles one forward
    and one backward kernel; a hit compiles nothing)."""
    from repro.compiler.plan import PlanCache, plan_cache

    monkeypatch.setattr("repro.compiler.plan._PLAN_CACHE", PlanCache())

    def cost(build):
        before = plan_cache().misses
        build()
        return plan_cache().misses - before

    return cost
