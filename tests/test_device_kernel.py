"""Kernel compilation and the launcher."""

from __future__ import annotations

import pytest

from repro.device.kernel import CompiledKernel, KernelLauncher, compile_kernel_source

SITE = "device.kernel_launch"  # a launch is one interval of this site


def test_compile_kernel_source_basic():
    fn = compile_kernel_source("def k(x):\n    return x * 2\n", "k")
    assert fn(21) == 42


def test_compile_kernel_source_with_globals():
    fn = compile_kernel_source(
        "def k(x):\n    return helper(x) + 1\n", "k", globals_extra={"helper": lambda v: v * 10}
    )
    assert fn(4) == 41


def test_compile_missing_entry_raises():
    with pytest.raises(RuntimeError, match="entry point"):
        compile_kernel_source("def other():\n    pass\n", "k")


def test_compile_syntax_error_surfaces():
    with pytest.raises(SyntaxError):
        compile_kernel_source("def k(:\n", "k")


def test_launcher_counts_and_times(fresh_device):
    launcher = KernelLauncher()
    kernel = CompiledKernel("k", "", lambda a, b: a + b, ())
    assert launcher.launch(kernel, 1, 2) == 3
    assert launcher.launch(kernel, 3, 4) == 7
    calls, seconds = fresh_device.totals.read().site_totals[SITE]
    assert calls == 2
    assert seconds >= 0.0
    assert launcher.launches_by_tier == {"python": 2}


def test_launcher_counts_failed_launches(fresh_device):
    launcher = KernelLauncher()

    def bad():
        raise RuntimeError("kernel fault")

    kernel = CompiledKernel("k", "", bad, ())
    with pytest.raises(RuntimeError):
        launcher.launch(kernel)
    assert fresh_device.totals.read().calls(SITE) == 1
    assert launcher.launches_by_tier == {"python": 1}


def test_launcher_clear():
    launcher = KernelLauncher()
    source = "def k():\n    return 7\n"
    kernel = launcher.compile(source, "k")
    assert launcher.launch(kernel) == 7
    assert launcher.compile(source, "k") is kernel
    assert (launcher.compile_count, launcher.source_dedup_hits) == (1, 1)
    launcher.clear()
    assert (launcher.compile_count, launcher.source_dedup_hits) == (0, 0)
    assert launcher.launches_by_tier == {}
    assert launcher.compile(source, "k") is not kernel  # the source cache went too
    assert launcher.compile_count == 1
