"""One runner per table/figure of the paper's evaluation (§VII).

Every function returns ``(rows, rendered_text)``; the benchmark suite calls
them at a small default scale (CI-friendly) and ``benchmarks/run_all.py``
regenerates EXPERIMENTS.md with whatever scale the environment requests:

* ``REPRO_BENCH_STATIC_SCALE``  (default 0.3)
* ``REPRO_BENCH_DYNAMIC_SCALE`` (default 0.02)
* ``REPRO_BENCH_EPOCHS``        (default 4; the paper uses 100)
* ``REPRO_BENCH_ENGINE``        (default unset; execution engine for the
  STGraph cells — "kernel" or "interpreter".  Engines are
  bitwise-identical, so only wall clock moves; ``repro bench
  --engine interpreter`` sets this)

Scales multiply Table II's node/edge counts; the paper's qualitative
claims (orderings, crossovers, slopes) are stable across scales — the
benchmark suite asserts them at the small scale.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.bench.measure import RunResult, run_dynamic_experiment, run_static_experiment
from repro.bench.report import ascii_series, format_fig9_table, format_table, improvement
from repro.dataset import DYNAMIC_DATASETS, STATIC_DATASETS

__all__ = [
    "static_scale",
    "dynamic_scale",
    "bench_epochs",
    "bench_engine",
    "table1_capabilities",
    "table2_datasets",
    "fig5_static_time",
    "fig6_static_memory",
    "fig7_dtdg_time",
    "fig8_dtdg_memory",
    "fig9_time_breakup",
    "table3_summary",
]


def static_scale() -> float:
    """Static-dataset scale from REPRO_BENCH_STATIC_SCALE (default 0.3)."""
    return float(os.environ.get("REPRO_BENCH_STATIC_SCALE", "0.3"))


def dynamic_scale() -> float:
    """Dynamic-dataset scale from REPRO_BENCH_DYNAMIC_SCALE (default 0.02)."""
    return float(os.environ.get("REPRO_BENCH_DYNAMIC_SCALE", "0.02"))


def bench_epochs() -> int:
    """Epochs per measured run from REPRO_BENCH_EPOCHS (default 4; paper uses 100)."""
    return int(os.environ.get("REPRO_BENCH_EPOCHS", "4"))


def bench_engine() -> str | None:
    """Execution engine for STGraph cells from REPRO_BENCH_ENGINE (default None)."""
    name = os.environ.get("REPRO_BENCH_ENGINE", "").strip()
    return name or None


# ---------------------------------------------------------------------------
# Table I — library capability matrix (documentation table)
# ---------------------------------------------------------------------------
def table1_capabilities() -> tuple[list[dict], str]:
    """Table I: the library capability matrix."""
    rows = [
        {"library": "PyTorch Geometric", "backend": "PyTorch", "static": "yes", "temporal": "no"},
        {"library": "DGL", "backend": "Agnostic", "static": "yes", "temporal": "no"},
        {"library": "GraphNets", "backend": "TensorFlow", "static": "yes", "temporal": "no"},
        {"library": "Spektral", "backend": "TensorFlow", "static": "yes", "temporal": "no"},
        {"library": "Seastar", "backend": "Agnostic", "static": "yes", "temporal": "no"},
        {"library": "PyTorch Geometric Temporal", "backend": "PyTorch", "static": "yes", "temporal": "yes"},
        {"library": "STGraph (this reproduction)", "backend": "Agnostic", "static": "yes", "temporal": "yes"},
    ]
    return rows, format_table(rows, title="Table I: Deep Learning Libraries on Graphs")


# ---------------------------------------------------------------------------
# Table II — dataset summary
# ---------------------------------------------------------------------------
def table2_datasets(
    static_kwargs: dict | None = None, dynamic_kwargs: dict | None = None
) -> tuple[list[dict], str]:
    """Table II: summary rows for all ten dataset stand-ins."""
    rows = []
    skw = {"scale": static_scale(), "num_timestamps": 20, **(static_kwargs or {})}
    dkw = {"scale": dynamic_scale(), "max_snapshots": 8, **(dynamic_kwargs or {})}
    for loader in STATIC_DATASETS.values():
        rows.append(loader(**skw).summary_row())
    for loader in DYNAMIC_DATASETS.values():
        rows.append(loader(**dkw).summary_row())
    return rows, format_table(rows, title="Table II: Benchmarking Datasets (synthetic stand-ins)")


# ---------------------------------------------------------------------------
# Figure 5 — per-epoch time vs feature size, static-temporal
# ---------------------------------------------------------------------------
def fig5_static_time(
    feature_sizes: tuple[int, ...] = (8, 16, 32),
    datasets: dict[str, Callable] | None = None,
    num_timestamps: int = 15,
    epochs: int | None = None,
    scale: float | None = None,
) -> tuple[list[RunResult], str]:
    """Figure 5: per-epoch time vs feature size, static-temporal, STGraph vs PyG-T."""
    datasets = datasets or STATIC_DATASETS
    epochs = epochs or bench_epochs()
    scale = static_scale() if scale is None else scale
    results: list[RunResult] = []
    blocks: list[str] = []
    for name, loader in datasets.items():
        series: dict[str, list[tuple[float, float]]] = {"STGraph": [], "PyG-T": []}
        for fs in feature_sizes:
            for system, label in (("stgraph", "STGraph"), ("pygt", "PyG-T")):
                r = run_static_experiment(
                    system, loader, feature_size=fs, scale=scale,
                    num_timestamps=num_timestamps, epochs=epochs,
                    engine=bench_engine(),
                )
                results.append(r)
                series[label].append((fs, r.per_epoch_seconds))
        blocks.append(ascii_series(series, title=f"Figure 5 [{name}]: per-epoch time vs feature size",
                                   xlabel="feature size", ylabel="s/epoch"))
    return results, "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Figure 6 — memory vs sequence length, static-temporal, feature size 8
# ---------------------------------------------------------------------------
def fig6_static_memory(
    sequence_lengths: tuple[int, ...] = (5, 10, 20),
    datasets: dict[str, Callable] | None = None,
    num_timestamps: int = 20,
    epochs: int | None = None,
    scale: float | None = None,
) -> tuple[list[RunResult], str]:
    """Figure 6: peak memory vs sequence length at feature size 8."""
    datasets = datasets or STATIC_DATASETS
    epochs = epochs or bench_epochs()
    scale = static_scale() if scale is None else scale
    results: list[RunResult] = []
    blocks: list[str] = []
    for name, loader in datasets.items():
        series: dict[str, list[tuple[float, float]]] = {"STGraph": [], "PyG-T": []}
        for seq in sequence_lengths:
            for system, label in (("stgraph", "STGraph"), ("pygt", "PyG-T")):
                r = run_static_experiment(
                    system, loader, feature_size=8, scale=scale,
                    num_timestamps=num_timestamps, sequence_length=seq, epochs=epochs,
                    engine=bench_engine(),
                )
                results.append(r)
                series[label].append((seq, r.peak_memory_bytes / 1e6))
        blocks.append(ascii_series(series, title=f"Figure 6 [{name}]: peak memory vs sequence length (F=8)",
                                   xlabel="sequence length", ylabel="MB"))
    return results, "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Figure 7 — per-epoch time vs feature size, DTDG, 5% change
# ---------------------------------------------------------------------------
_DTDG_SYSTEMS = (("naive", "STGraph-Naive"), ("gpma", "STGraph-GPMA"), ("pygt", "PyG-T"))


def fig7_dtdg_time(
    feature_sizes: tuple[int, ...] = (8, 32, 64),
    datasets: dict[str, Callable] | None = None,
    epochs: int | None = None,
    percent_change: float = 5.0,
    scale: float | None = None,
) -> tuple[list[RunResult], str]:
    """Figure 7: per-epoch time vs feature size for the three DTDG systems."""
    datasets = datasets or DYNAMIC_DATASETS
    epochs = epochs or bench_epochs()
    scale = dynamic_scale() if scale is None else scale
    results: list[RunResult] = []
    blocks: list[str] = []
    for name, loader in datasets.items():
        series: dict[str, list[tuple[float, float]]] = {label: [] for _, label in _DTDG_SYSTEMS}
        for fs in feature_sizes:
            for system, label in _DTDG_SYSTEMS:
                r = run_dynamic_experiment(
                    system, loader, feature_size=fs, percent_change=percent_change,
                    scale=scale, epochs=epochs,
                    engine=bench_engine(),
                )
                results.append(r)
                series[label].append((fs, r.per_epoch_seconds))
        blocks.append(ascii_series(series, title=f"Figure 7 [{name}]: per-epoch time vs feature size (5% change)",
                                   xlabel="feature size", ylabel="s/epoch"))
    return results, "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Figure 8 — memory vs percent change, DTDG
# ---------------------------------------------------------------------------
def fig8_dtdg_memory(
    percent_changes: tuple[float, ...] = (1.0, 5.0, 10.0),
    datasets: dict[str, Callable] | None = None,
    epochs: int | None = None,
    feature_size: int = 8,
    scale: float | None = None,
) -> tuple[list[RunResult], str]:
    """Memory vs percent change.  ``max_snapshots=None``: a fixed stream
    discretized at a smaller percent change yields proportionally more
    snapshots, which is exactly the redundancy the figure measures."""
    datasets = datasets or DYNAMIC_DATASETS
    epochs = epochs or bench_epochs()
    scale = dynamic_scale() if scale is None else scale
    results: list[RunResult] = []
    blocks: list[str] = []
    for name, loader in datasets.items():
        series: dict[str, list[tuple[float, float]]] = {label: [] for _, label in _DTDG_SYSTEMS}
        for pct in percent_changes:
            for system, label in _DTDG_SYSTEMS:
                r = run_dynamic_experiment(
                    system, loader, feature_size=feature_size, percent_change=pct,
                    scale=scale, epochs=epochs, max_snapshots=None,
                    engine=bench_engine(),
                )
                results.append(r)
                series[label].append((pct, r.peak_memory_bytes / 1e6))
        blocks.append(ascii_series(series, title=f"Figure 8 [{name}]: peak memory vs % change between snapshots",
                                   xlabel="% change", ylabel="MB"))
    return results, "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Figure 9 — GNN vs graph-update time split
# ---------------------------------------------------------------------------
def fig9_time_breakup(
    feature_sizes: tuple[int, ...] = (8, 32, 64),
    datasets: dict[str, Callable] | None = None,
    epochs: int | None = None,
    scale: float | None = None,
) -> tuple[list[RunResult], str]:
    """Figure 9: GNN vs graph-update share of STGraph-GPMA's time.

    No tracer is installed: the table is rendered by
    :func:`repro.bench.report.format_fig9_table` from each cell's device
    totals (self time per category) — the same records, hence the same
    attribution, the Chrome trace of a ``--trace`` run shows.
    """
    datasets = datasets or DYNAMIC_DATASETS
    epochs = epochs or bench_epochs()
    scale = dynamic_scale() if scale is None else scale
    results = [
        run_dynamic_experiment(
            "gpma", loader, feature_size=fs, scale=scale, epochs=epochs, engine=bench_engine(),
        )
        for loader in datasets.values()
        for fs in feature_sizes
    ]
    return results, format_fig9_table(results)


# ---------------------------------------------------------------------------
# Scalability (extension): per-epoch time vs dataset scale
# ---------------------------------------------------------------------------
def scaling_experiment(
    scales: tuple[float, ...] = (0.01, 0.02, 0.04),
    loader: Callable | None = None,
    feature_size: int = 16,
    epochs: int | None = None,
) -> tuple[list[RunResult], str]:
    """Per-epoch time of the three DTDG systems as the dataset grows.

    Backs the paper's closing claim that "STGraph-GPMA is the more scalable
    alternative since it doesn't have the large pre-processing time of
    preparing CSRs and reverse-CSRs for snapshots at every timestamp": the
    Naive variant's preprocessing is included in its first measured epoch
    window here via the ``preprocess`` phase, reported separately.
    """
    loader = loader or DYNAMIC_DATASETS["sx-mathoverflow"]
    epochs = epochs or bench_epochs()
    results: list[RunResult] = []
    series: dict[str, list[tuple[float, float]]] = {label: [] for _, label in _DTDG_SYSTEMS}
    for scale in scales:
        for system, label in _DTDG_SYSTEMS:
            r = run_dynamic_experiment(
                system, loader, feature_size=feature_size, scale=scale, epochs=epochs,
            )
            results.append(r)
            r.params["scale"] = scale
            series[label].append((scale, r.per_epoch_seconds))
    return results, ascii_series(
        series,
        title="Scaling (extension): per-epoch time vs dataset scale (DTDG)",
        xlabel="scale", ylabel="s/epoch",
    )


# ---------------------------------------------------------------------------
# Table III — improvement summary
# ---------------------------------------------------------------------------
def table3_summary(
    static_results: list[RunResult],
    dynamic_time_results: list[RunResult],
    dynamic_mem_results: list[RunResult] | None = None,
) -> tuple[list[dict], str]:
    """Aggregate Figures 5-8 runs into the paper's max/avg improvement table.

    Improvements are PyG-T / variant per matching (dataset, params) cell.
    """
    dynamic_mem_results = dynamic_mem_results or dynamic_time_results

    def collect(results: list[RunResult], variant: str, metric: str) -> list[float]:
        base = {
            (r.dataset, tuple(sorted(r.params.items()))): getattr(r, metric)
            for r in results
            if r.system == "pygt"
        }
        ratios = []
        for r in results:
            if r.system != variant:
                continue
            key = (r.dataset, tuple(sorted(r.params.items())))
            if key in base:
                ratios.append(improvement(base[key], getattr(r, metric)))
        return ratios

    rows = []
    for metric, metric_name in (
        ("per_epoch_seconds", "Time/epoch"),
        ("peak_memory_bytes", "Memory"),
    ):
        row_max = {"metric": f"{metric_name} (max)"}
        row_avg = {"metric": f"{metric_name} (avg)"}
        for variant, col, results in (
            ("stgraph", "Static", static_results),
            ("naive", "Naive", dynamic_time_results if metric == "per_epoch_seconds" else dynamic_mem_results),
            ("gpma", "GPMA", dynamic_time_results if metric == "per_epoch_seconds" else dynamic_mem_results),
        ):
            ratios = collect(results, variant, metric)
            row_max[col] = f"{max(ratios):.2f}x" if ratios else "-"
            row_avg[col] = f"{sum(ratios)/len(ratios):.2f}x" if ratios else "-"
        rows.append(row_max)
        rows.append(row_avg)
    return rows, format_table(
        rows, title="Table III: Improvement of STGraph variants over PyG-T (this reproduction)"
    )
