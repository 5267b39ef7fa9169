"""Tests of the benchmark's own machinery (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_probe.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import probe  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------
def test_self_time_is_duration_minus_direct_children():
    spans = [
        (0, 0.0, 10.0, -1, 0),  # root
        (1, 1.0, 4.0, 0, 0),    # child of root
        (2, 2.0, 3.0, 1, 0),    # grandchild: comes off the child, not the root
        (1, 5.0, 7.0, 0, 0),    # second child of root
        None,                   # still open when read: ignored
    ]
    assert probe.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 0.0]


def test_wrappers_nest_on_one_thread_and_not_across_threads():
    recorder = probe.SpanRecorder()
    inner = recorder.wrap("pma.insert_batch", lambda pma, keys: len(keys))

    def on_another_thread():
        thread = threading.Thread(target=inner, args=(None, [1, 2, 3]), name="other")
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    outer = recorder.wrap("graph.advance", lambda: (inner(None, [1, 2]), on_another_thread()))
    outer()

    by_thread = {state.name: state.spans for state in recorder.threads}
    main, other = by_thread[threading.current_thread().name], by_thread["other"]
    assert [(probe.SITES[s[0]], s[3], s[4]) for s in main] == [("graph.advance", -1, 0), ("pma.insert_batch", 0, 2)]
    assert [(probe.SITES[s[0]], s[3], s[4]) for s in other] == [("pma.insert_batch", -1, 3)]

    totals = probe.summarize(recorder, 0.0, float("inf"))
    assert totals["pma.insert_batch"].calls == 2 and totals["pma.insert_batch"].weight == 5
    # the same-thread child comes off the parent; the other thread's span does not
    advance, child = totals["graph.advance"], main[1][2] - main[1][1]
    assert abs(advance.self_s - (advance.total_s - child)) < 1e-12
    only_other = probe.summarize(recorder, 0.0, float("inf"), lambda name: name == "other")
    assert only_other["pma.insert_batch"].calls == 1 and only_other["graph.advance"].calls == 0


def test_a_raising_call_still_closes_its_span():
    recorder = probe.SpanRecorder()

    def boom():
        raise KeyError("x")

    wrapped = recorder.wrap("graph.k_hop", boom)
    try:
        wrapped()
    except KeyError:
        pass
    (state,) = recorder.threads
    assert state.stack == [] and state.spans[0] is not None


# ---------------------------------------------------------------------------
# Installing and restoring
# ---------------------------------------------------------------------------
def _bindings() -> dict[tuple[str, str], int]:
    """Identity of every function and method object reachable in loaded ``repro`` modules."""
    found: dict[tuple[str, str], int] = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in vars(module).items():
            if callable(value):
                found[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    found[(f"{name}.{key}", attr)] = id(member)
    return found


def test_wrappers_are_fully_restored():
    import repro.serve  # noqa: F401
    import repro.train  # noqa: F401
    from repro.graph import dirty, gpma_graph, snapshot_builder
    from repro.pma import PackedMemoryArray
    from repro.serve import engine as serve_engine
    from repro.tensor.ops import Function

    before = _bindings()
    with probe.installed(probe.SpanRecorder()) as missing:
        assert missing == []
        assert PackedMemoryArray.insert_batch.__name__ == "probe_wrapper"
        assert isinstance(vars(Function)["apply"], classmethod)
        # a function imported by name is rebound where it was imported, too
        assert gpma_graph.build_snapshot_arrays is snapshot_builder.build_snapshot_arrays
        assert serve_engine.k_hop_neighborhood is dirty.k_hop_neighborhood
        assert serve_engine.k_hop_neighborhood.__name__ == "probe_wrapper"
        assert _bindings() != before
    assert _bindings() == before


def test_restored_even_when_the_block_raises():
    from repro.pma import PackedMemoryArray

    original = vars(PackedMemoryArray)["delete_batch"]
    try:
        with probe.installed(probe.SpanRecorder()):
            raise RuntimeError("measured code failed")
    except RuntimeError:
        pass
    assert vars(PackedMemoryArray)["delete_batch"] is original


# ---------------------------------------------------------------------------
# The percentile rule: at least ten samples beyond the percentile reported
# ---------------------------------------------------------------------------
def test_highest_supported_percentile():
    assert stats.highest_supported_percentile(19) is None
    assert stats.highest_supported_percentile(20) == 50
    assert stats.highest_supported_percentile(240) == 90
    assert stats.highest_supported_percentile(4800) == 99
    assert stats.highest_supported_percentile(10_000) == 99.9


def test_named_percentiles_are_supported_at_the_default_run_length():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    updates = 2 * workloads.WORKLOADS["serve-churn"].units(seconds)  # two passes pooled
    queries = updates * 10 * 2
    assert stats.highest_supported_percentile(queries) >= 99  # query_p99_ms
    assert stats.highest_supported_percentile(updates) >= 90  # update_visible_p90_ms


def test_percentile_interpolates_like_numpy():
    import numpy as np

    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    for q in (0, 50, 90, 99, 100):
        assert abs(stats.percentile(values, q) - float(np.percentile(values, q))) < 1e-12


# ---------------------------------------------------------------------------
# Bypass: the static workload never touches the PMA; the dynamic one does
# ---------------------------------------------------------------------------
def _pma_calls(result: dict) -> int:
    return sum(
        row["calls"]
        for window in (result["sites"], result["setup_sites"])
        for group in window.values()
        for site, row in group.items() if site.startswith("pma.")
    )


def test_static_workload_bypasses_the_pma():
    result = workloads.run_pass("static-gnn-bound", seed=0, seconds=0, traced=True, scale=0.2)
    assert _pma_calls(result) == 0
    assert result["checks"]["bypassed_layers_idle"]
    assert result["sites"]["program"]["device.kernel_launch"]["calls"] > 0


def test_dynamic_workload_does_not():
    result = workloads.run_pass("dtdg-update-bound", seed=0, seconds=0, traced=True, scale=0.02)
    assert _pma_calls(result) > 0
    assert result["sites"]["program"]["pma.delete_batch"]["weight"] > 0
    assert result["checks"]["snapshots_match_dtdg"]


# ---------------------------------------------------------------------------
# BENCHMARK.json names exactly what run.py prints
# ---------------------------------------------------------------------------
def test_manifest_matches_the_code():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.layer_units()
    assert len(manifest["per_layer"]) <= 128
