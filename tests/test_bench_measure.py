"""Benchmark-runner parameter plumbing (fast configurations)."""

from __future__ import annotations

import pytest

from repro.bench import run_dynamic_experiment, run_static_experiment
from repro.dataset import load_hungary_chickenpox, load_sx_mathoverflow

_FAST_STATIC = dict(scale=1.0, num_timestamps=8, epochs=2, warmup=1, feature_size=4)
_FAST_DYNAMIC = dict(scale=0.005, epochs=2, warmup=1, feature_size=4, max_snapshots=5)


def test_unknown_static_system():
    with pytest.raises(ValueError, match="static system"):
        run_static_experiment("cuda", load_hungary_chickenpox)


def test_unknown_dynamic_system():
    with pytest.raises(ValueError, match="dynamic system"):
        run_dynamic_experiment("spark", load_sx_mathoverflow)


def test_hidden_defaults_to_feature_size():
    r = run_static_experiment("stgraph", load_hungary_chickenpox, **_FAST_STATIC)
    assert r.params["F"] == 4
    assert r.per_epoch_seconds > 0
    assert r.peak_memory_bytes > 0


def test_explicit_hidden_override():
    r = run_static_experiment(
        "stgraph", load_hungary_chickenpox, hidden=32, **_FAST_STATIC
    )
    assert r.per_epoch_seconds > 0


def test_sort_by_degree_flag_runs():
    a = run_static_experiment(
        "stgraph", load_hungary_chickenpox, sort_by_degree=True, **_FAST_STATIC
    )
    b = run_static_experiment(
        "stgraph", load_hungary_chickenpox, sort_by_degree=False, **_FAST_STATIC
    )
    # identical math either way
    assert a.final_loss == pytest.approx(b.final_loss, rel=1e-4)


def test_gpma_cache_flag_runs():
    a = run_dynamic_experiment(
        "gpma", load_sx_mathoverflow, gpma_cache=True,
        sequence_length=2, **_FAST_DYNAMIC,
    )
    b = run_dynamic_experiment(
        "gpma", load_sx_mathoverflow, gpma_cache=False,
        sequence_length=2, **_FAST_DYNAMIC,
    )
    assert a.final_loss == pytest.approx(b.final_loss, rel=1e-4)


def test_csr_cache_flag_ablates_reuse():
    on = run_dynamic_experiment(
        "gpma", load_sx_mathoverflow, csr_cache=True,
        sequence_length=2, **_FAST_DYNAMIC,
    )
    off = run_dynamic_experiment(
        "gpma", load_sx_mathoverflow, csr_cache=False,
        sequence_length=2, **_FAST_DYNAMIC,
    )
    # Reuse is a pure optimization: identical training, fewer rebuilds.
    assert on.final_loss == pytest.approx(off.final_loss, rel=1e-4)
    on_t, off_t = on.totals, off.totals
    assert on_t.count("csr_cache_hits") + on_t.count("ctx_cache_hits") > 0
    assert off_t.count("csr_cache_hits") == 0 and off_t.count("ctx_cache_hits") == 0
    assert on_t.count("csr_cache_misses") < off_t.count("csr_cache_misses")
    assert 0.0 < on.reuse_rate <= 1.0 and off.reuse_rate == 0.0


def test_dynamic_runs_isolated_devices():
    """Consecutive runs must not share memory accounting."""
    a = run_dynamic_experiment("naive", load_sx_mathoverflow, **_FAST_DYNAMIC)
    b = run_dynamic_experiment("naive", load_sx_mathoverflow, **_FAST_DYNAMIC)
    assert a.peak_memory_bytes == pytest.approx(b.peak_memory_bytes, rel=0.25)


def test_pygt_has_no_graph_update_time():
    r = run_dynamic_experiment("pygt", load_sx_mathoverflow, **_FAST_DYNAMIC)
    assert r.totals.seconds("graph_update") == 0.0
    assert r.graph_update_fraction == 0.0


def test_run_result_rows_serializable():
    import json

    r = run_static_experiment("stgraph", load_hungary_chickenpox, **_FAST_STATIC)
    json.dumps(r.row())  # must be plain JSON types
    assert {"csr_hits", "csr_misses", "noop_skipped"} <= set(r.row())
