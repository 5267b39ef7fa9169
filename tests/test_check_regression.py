"""Benchmark regression gate: robust detection, sustained-only flagging.

The acceptance criteria: ``check_regression.py`` must flag an injected 3×
slowdown in a synthetic nightly history (exit 1) while passing the real
baseline compared against itself (exit 0), and one noisy night must never
trip a ``--sustain 2`` gate.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib
import sys

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
sys.modules["check_regression"] = check_regression
_spec.loader.exec_module(check_regression)

_BASE = {
    "elapsed_s": 12.0,
    "rows": [
        {"system": "stgraph", "dataset": "wikitalk", "T": 10,
         "epoch_s": 1.00, "loss": 0.5, "csr_hits": 7},
        {"system": "pygt", "dataset": "wikitalk", "T": 10,
         "epoch_s": 2.00, "loss": 0.5},
    ],
    "micro": {"gpma_advance_s": 0.010, "spmm_s": 0.005, "launches": 42},
    "serving_ablation": [
        {"mode": "batched+inval", "p50_ms": 0.25, "p99_ms": 2.5, "qps": 4000,
         "forwards": 7, "row_cache_hits": 300, "updates": 6},
        {"mode": "unbatched", "p50_ms": 1.50, "p99_ms": 9.0, "qps": 600,
         "forwards": 384, "row_cache_hits": 0, "updates": 6},
    ],
}


def _payload(scale: float = 1.0) -> dict:
    p = copy.deepcopy(_BASE)
    for row in p["rows"]:
        row["epoch_s"] *= scale
    p["micro"]["gpma_advance_s"] *= scale
    return p


def _write(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def history(tmp_path):
    """Three quiet nights with realistic jitter."""
    return [_write(tmp_path, f"n{i}.json", _payload(s))
            for i, s in enumerate((1.00, 1.03, 0.97))]


def test_extract_metrics_covers_all_timing_sections():
    metrics = check_regression.extract_metrics(_BASE)
    assert any(k.startswith("rows[") and "system=stgraph" in k for k in metrics)
    assert metrics["micro.gpma_advance_s"] == 0.010
    assert metrics["serving_ablation[mode=batched+inval].p50_ms"] == 0.25
    assert metrics["serving_ablation[mode=unbatched].p99_ms"] == 9.0
    # Counters/losses are excluded; only numbers survive.
    assert "rows[T=10,dataset=wikitalk,system=stgraph].loss" not in metrics
    assert all(isinstance(v, float) for v in metrics.values())


def test_three_x_slowdown_is_flagged(tmp_path, history):
    slow = _write(tmp_path, "slow.json", _payload(3.0))
    rc = check_regression.main([*history, slow, "--sustain", "1"])
    assert rc == 1


def test_baseline_against_itself_passes(tmp_path, history):
    again = _write(tmp_path, "again.json", _payload(1.0))
    assert check_regression.main([*history, again, "--sustain", "1"]) == 0


def test_single_spike_not_sustained(tmp_path, history):
    spike = _write(tmp_path, "spike.json", _payload(3.0))
    recovered = _write(tmp_path, "rec.json", _payload(1.01))
    assert check_regression.main([*history, spike, recovered, "--sustain", "2"]) == 0


def test_two_slow_nights_are_sustained(tmp_path, history):
    slow1 = _write(tmp_path, "s1.json", _payload(3.0))
    slow2 = _write(tmp_path, "s2.json", _payload(2.8))
    assert check_regression.main([*history, slow1, slow2, "--sustain", "2"]) == 1


def test_single_payload_passes_with_note(tmp_path, capsys):
    only = _write(tmp_path, "only.json", _payload())
    assert check_regression.main([only]) == 0
    assert "nothing to compare" in capsys.readouterr().out


def test_new_metric_without_history_is_skipped(tmp_path, history):
    curr = _payload()
    curr["micro"]["brand_new_s"] = 99.0
    path = _write(tmp_path, "new.json", curr)
    assert check_regression.main([*history, path, "--sustain", "1"]) == 0


def test_check_rejects_bad_sustain():
    with pytest.raises(ValueError):
        check_regression.check([{"a": 1.0}, {"a": 1.0}], sustain=0)


def test_committed_baseline_passes_against_itself():
    baseline = _SCRIPT.parent / "BENCH_baseline.json"
    if not baseline.exists():
        pytest.skip("no committed baseline yet")
    assert check_regression.main([str(baseline), str(baseline), "--sustain", "1"]) == 0
