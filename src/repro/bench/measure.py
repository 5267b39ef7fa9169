"""Measured experiment runners.

``run_static_experiment`` / ``run_dynamic_experiment`` build the dataset,
model, and trainer for one (system, configuration) cell of a figure, run
the paper's training protocol (N epochs, first ``warmup`` ignored for
timing), and report:

* mean per-epoch wall time (Figures 5/7),
* peak device-resident bytes (Figures 6/8),
* GNN vs graph-update time split (Figure 9),
* final loss (the paper's "loss ... similar over all tests" check).

Every run executes inside a fresh :class:`~repro.device.Device` so
measurements never bleed across configurations, and both frameworks draw
identical initial weights (seeded initializer) so loss trajectories are
comparable.  The time split and the reuse counters are one read of that
device's always-on totals (``device.totals.read()``): no tracer is needed.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable

from repro.device import Device, use_device
from repro.obs.spine import Totals
from repro.tensor import init

__all__ = ["RunResult", "run_static_experiment", "run_dynamic_experiment"]


@dataclass
class RunResult:
    """One measured (system, configuration) cell of a figure."""
    system: str
    dataset: str
    params: dict = field(default_factory=dict)
    per_epoch_seconds: float = 0.0
    peak_memory_bytes: int = 0
    final_loss: float = 0.0
    # Execution-engine ablation: empty string = the executor default (kernel).
    engine: str = ""
    #: the run device's totals: self seconds per category (``gnn``,
    #: ``graph_update``, ``compile``, ...) and the snapshot/context reuse
    #: counters (zero for systems without them)
    totals: Totals = field(default_factory=Totals)

    def time_split(self) -> tuple[float, float]:
        """(gnn seconds, graph-update seconds) for the Figure 9 breakup:
        the two categories' self time, the attribution a trace shows."""
        return self.totals.seconds("gnn"), self.totals.seconds("graph_update")

    @property
    def graph_update_fraction(self) -> float:
        """Share of profiled compute spent on graph updates (Figure 9's y-axis)."""
        gnn, upd = self.time_split()
        return upd / (gnn + upd) if gnn + upd > 0 else 0.0

    @property
    def compile_fraction(self) -> float:
        """One-time plan compilation relative to all profiled compute.

        Zero for runs whose plans were already warm in the process-wide
        plan cache — the compile-once/run-every-timestamp amortization.
        """
        compile_seconds = self.totals.seconds("compile")
        denom = sum(self.time_split()) + compile_seconds
        return compile_seconds / denom if denom > 0 else 0.0

    @property
    def csr_cache_hit_rate(self) -> float:
        """Fraction of CSR-level positionings served by the graph's installed build."""
        hits = self.totals.count("csr_cache_hits")
        denom = hits + self.totals.count("csr_cache_misses")
        return hits / denom if denom > 0 else 0.0

    @property
    def reuse_rate(self) -> float:
        """Fraction of temporal positionings that skipped the CSR rebuild.

        Each positioning ends one of three ways: an executor context hit
        (the CSRs are never consulted), a hit on the graph's installed
        build, or a full rebuild.  A context miss triggers exactly one
        CSR-level event, so the three counters partition the positionings.
        """
        served = self.totals.count("ctx_cache_hits") + self.totals.count("csr_cache_hits")
        denom = served + self.totals.count("csr_cache_misses")
        return served / denom if denom > 0 else 0.0

    def row(self) -> dict:
        """Flat JSON-friendly dict for tables and CI tracking.

        The engine key appears only for runs with an explicit engine
        selection, so default-engine rows keep their historical key set
        (the nightly differ compares rows key-by-key).
        """
        row = {
            "system": self.system,
            "dataset": self.dataset,
            **self.params,
            "epoch_s": round(self.per_epoch_seconds, 5),
            "peak_MB": round(self.peak_memory_bytes / 1e6, 3),
            "loss": round(self.final_loss, 4),
            "update_frac": round(self.graph_update_fraction, 3),
            "compile_s": round(self.totals.seconds("compile"), 5),
            "csr_hits": self.totals.count("csr_cache_hits"),
            "csr_misses": self.totals.count("csr_cache_misses"),
            "noop_skipped": self.totals.count("noop_updates_skipped"),
        }
        if self.engine:
            row["engine"] = self.engine
        return row


def run_static_experiment(
    system: str,
    loader: Callable,
    feature_size: int = 8,
    hidden: int | None = None,
    sequence_length: int | None = None,
    num_timestamps: int = 30,
    scale: float = 1.0,
    epochs: int = 5,
    warmup: int = 1,
    weight_seed: int = 42,
    sort_by_degree: bool = True,
    engine: str | None = None,
) -> RunResult:
    """One cell of Figure 5/6: ``system`` ∈ {"stgraph", "pygt"}.

    ``engine`` selects the STGraph execution engine ("kernel",
    "interpreter"); ignored for the PyG-T baseline.  All engines are
    bitwise-identical, so only wall clock moves.
    """
    from repro.train.models import PyGTNodeRegressor, STGraphNodeRegressor
    from repro.train.trainer import BaselineTrainer, STGraphTrainer

    if system not in ("stgraph", "pygt"):
        raise ValueError(f"unknown static system {system!r}")
    # The paper's TGCN "default configuration" ties model width to the
    # feature size, so GNN processing cost scales with the Figure 5/7
    # x-axis; a fixed hidden width would flatten the sweeps.
    hidden = feature_size if hidden is None else hidden
    gc.collect()
    device = Device(name=f"bench:{system}")
    with use_device(device):
        ds = loader(lags=feature_size, scale=scale, num_timestamps=num_timestamps)
        init.set_seed(weight_seed)
        if system == "stgraph":
            model = STGraphNodeRegressor(feature_size, hidden)
            graph = ds.build_graph(sort_by_degree=sort_by_degree)
            trainer = STGraphTrainer(
                model, graph, sequence_length=sequence_length, engine=engine
            )
        else:
            model = PyGTNodeRegressor(feature_size, hidden)
            signal = ds.to_pygt_signal()
            trainer = BaselineTrainer(model, signal.edge_index, sequence_length=sequence_length)
        losses = trainer.train(ds.features, ds.targets, epochs=epochs, warmup=warmup)
        return RunResult(
            system=system,
            dataset=ds.name,
            params={"F": feature_size, "seq": sequence_length or num_timestamps},
            engine=engine or "" if system == "stgraph" else "",
            per_epoch_seconds=trainer.mean_epoch_time,
            peak_memory_bytes=device.tracker.peak_bytes,
            final_loss=losses[-1],
            totals=device.totals.read(),
        )


def run_dynamic_experiment(
    system: str,
    loader: Callable,
    feature_size: int = 8,
    hidden: int | None = None,
    sequence_length: int | None = 4,
    percent_change: float = 5.0,
    scale: float = 0.01,
    max_snapshots: int | None = 10,
    epochs: int = 5,
    warmup: int = 1,
    weight_seed: int = 42,
    samples_per_timestamp: int = 128,
    sort_by_degree: bool = True,
    gpma_cache: bool = True,
    csr_cache: bool = True,
    engine: str | None = None,
) -> RunResult:
    """One cell of Figure 7/8/9: ``system`` ∈ {"naive", "gpma", "pygt"}.

    ``engine`` selects the STGraph execution engine ("kernel",
    "interpreter"); ignored for the PyG-T baseline.
    """
    from repro.train.models import PyGTLinkPredictor, STGraphLinkPredictor
    from repro.train.tasks import make_link_prediction_samples
    from repro.train.trainer import BaselineTrainer, STGraphTrainer

    if system not in ("naive", "gpma", "pygt"):
        raise ValueError(f"unknown dynamic system {system!r}")
    hidden = feature_size if hidden is None else hidden
    gc.collect()
    device = Device(name=f"bench:{system}")
    with use_device(device):
        ds = loader(
            scale=scale,
            percent_change=percent_change,
            feature_size=feature_size,
            max_snapshots=max_snapshots,
        )
        samples = make_link_prediction_samples(
            ds.dtdg, samples_per_timestamp=samples_per_timestamp, seed=weight_seed
        )
        init.set_seed(weight_seed)
        if system == "pygt":
            model = PyGTLinkPredictor(feature_size, hidden)
            signal = ds.to_pygt_signal()
            trainer = BaselineTrainer(
                model,
                signal.edge_indices,
                sequence_length=sequence_length,
                task="link_prediction",
                link_samples=samples,
            )
        else:
            model = STGraphLinkPredictor(feature_size, hidden)
            graph = (
                ds.build_naive(sort_by_degree=sort_by_degree)
                if system == "naive"
                else ds.build_gpma(
                    sort_by_degree=sort_by_degree,
                    enable_cache=gpma_cache,
                    enable_csr_cache=csr_cache,
                )
            )
            trainer = STGraphTrainer(
                model,
                graph,
                sequence_length=sequence_length,
                task="link_prediction",
                link_samples=samples,
                engine=engine,
            )
        losses = trainer.train(ds.features, targets=None, epochs=epochs, warmup=warmup)
        return RunResult(
            system=system,
            dataset=ds.name,
            params={"F": feature_size, "pct": percent_change},
            engine=engine or "" if system != "pygt" else "",
            per_epoch_seconds=trainer.mean_epoch_time,
            peak_memory_bytes=device.tracker.peak_bytes,
            final_loss=losses[-1],
            totals=device.totals.read(),
        )
