"""Benchmark harness: experiment runners for every table and figure.

Each experiment of §VII has a runner in :mod:`repro.bench.experiments`
returning structured rows; :mod:`repro.bench.report` renders paper-style
ASCII tables and series.  Every measured configuration runs on a fresh
simulated device so peak-memory and phase-time accounting are isolated.
"""

from repro.bench.measure import RunResult, run_dynamic_experiment, run_static_experiment
from repro.bench.report import ascii_series, format_table, improvement

__all__ = [
    "RunResult",
    "run_static_experiment",
    "run_dynamic_experiment",
    "format_table",
    "ascii_series",
    "improvement",
]
