"""Benchmark reporting utilities and Table III aggregation."""

from __future__ import annotations

import pytest

from repro.bench import ascii_series, format_table, improvement
from repro.bench.measure import RunResult
from repro.bench.experiments import table1_capabilities, table3_summary


def test_format_table_alignment():
    rows = [{"a": 1, "bb": "xy"}, {"a": 222, "bb": "z"}]
    text = format_table(rows, title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1  # all rows aligned


def test_format_table_empty():
    assert "(no rows)" in format_table([], title="x")


def test_ascii_series_renders_markers():
    text = ascii_series(
        {"A": [(1, 1), (2, 2)], "B": [(1, 2), (2, 4)]},
        title="demo", xlabel="x", ylabel="y",
    )
    assert "demo" in text
    assert "* = A" in text and "o = B" in text
    assert any("*" in line for line in text.splitlines()[2:-3])


def test_ascii_series_empty():
    assert "(no data)" in ascii_series({}, title="t")


def test_ascii_series_constant_series_no_crash():
    text = ascii_series({"flat": [(1, 5), (2, 5), (3, 5)]})
    assert "flat" in text


def test_improvement_ratio():
    assert improvement(2.0, 1.0) == pytest.approx(2.0)
    assert improvement(1.0, 2.0) == pytest.approx(0.5)
    assert improvement(1.0, 0.0) == float("inf")


def test_table1_shape():
    rows, text = table1_capabilities()
    assert len(rows) == 7
    assert rows[-1]["temporal"] == "yes"
    assert "STGraph" in text


def _rr(system, dataset, params, t, m):
    return RunResult(system=system, dataset=dataset, params=params,
                     per_epoch_seconds=t, peak_memory_bytes=m)


def test_table3_aggregation():
    static = [
        _rr("stgraph", "d1", {"F": 8}, 1.0, 100),
        _rr("pygt", "d1", {"F": 8}, 2.0, 300),
        _rr("stgraph", "d1", {"F": 16}, 1.0, 100),
        _rr("pygt", "d1", {"F": 16}, 1.5, 150),
    ]
    dynamic = [
        _rr("naive", "d2", {"F": 8}, 1.0, 400),
        _rr("gpma", "d2", {"F": 8}, 2.0, 100),
        _rr("pygt", "d2", {"F": 8}, 1.8, 200),
    ]
    rows, text = table3_summary(static, dynamic)
    by_metric = {r["metric"]: r for r in rows}
    assert by_metric["Time/epoch (max)"]["Static"] == "2.00x"
    assert by_metric["Time/epoch (avg)"]["Static"] == "1.75x"
    assert by_metric["Time/epoch (max)"]["Naive"] == "1.80x"
    assert by_metric["Memory (max)"]["GPMA"] == "2.00x"
    assert by_metric["Memory (max)"]["Naive"] == "0.50x"
    assert "Table III" in text


def test_table3_unmatched_cells_dash():
    rows, _ = table3_summary([_rr("stgraph", "d", {"F": 8}, 1, 1)], [])
    assert rows[0]["Static"] == "-"
