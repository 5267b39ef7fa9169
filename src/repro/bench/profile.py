"""Training-run profiling: one call → a phase/stack/memory report.

Wraps any trainer in a fresh device and reports where the time went
(GNN kernels vs graph updates vs everything else), how deep the State and
Graph stacks ran, and the peak residency — the quickest way for a user to
see the paper's Figure 9 decomposition on *their* workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.report import format_table
from repro.device import Device, use_device
from repro.obs.spine import Totals

__all__ = ["ProfileReport", "profile_training"]


@dataclass
class ProfileReport:
    """Phase/stack/memory summary of one profiled training run."""
    epochs: int
    total_seconds: float
    peak_memory_bytes: int
    state_stack_peak_depth: int
    state_stack_peak_bytes: int
    graph_stack_peak_depth: int
    final_loss: float
    #: the profiled device's totals: self seconds per phase, reuse
    #: counters, kernel launches
    totals: Totals

    @property
    def other_seconds(self) -> float:
        """Wall time outside the compile/gnn/update/preprocess phases."""
        return max(0.0, self.total_seconds - sum(self.totals.phase_seconds().values()))

    def render(self) -> str:
        """ASCII table plus a one-line memory/stack summary."""
        def row(phase: str, seconds: float) -> dict:
            share = f"{100 * seconds / self.total_seconds:.1f}%" if self.total_seconds else "-"
            return {"phase": phase, "seconds": round(seconds, 4), "share": share}

        totals = self.totals
        rows = [
            row("plan compilation", totals.seconds("compile")),
            row("gnn kernels", totals.seconds("gnn")),
            row("graph updates", totals.seconds("graph_update")),
            row("preprocessing", totals.seconds("preprocess")),
            row("other (optimizer, losses, host)", self.other_seconds),
        ]
        extra = (
            f"peak memory: {self.peak_memory_bytes / 1e6:.2f} MB | "
            f"kernel launches: {totals.calls('device.kernel_launch')} | "
            f"state stack: depth {self.state_stack_peak_depth}, "
            f"{self.state_stack_peak_bytes / 1e3:.1f} KB peak | "
            f"graph stack: depth {self.graph_stack_peak_depth} | "
            f"final loss: {self.final_loss:.4f}"
        )
        reuse = (
            f"snapshot reuse: csr cache {totals.count('csr_cache_hits')} hit / "
            f"{totals.count('csr_cache_misses')} miss | ctx cache "
            f"{totals.count('ctx_cache_hits')} hit / {totals.count('ctx_cache_misses')} miss | "
            f"noop updates skipped: {totals.count('noop_updates_skipped')}"
        )
        return (
            format_table(rows, title=f"Profile ({self.epochs} epochs, {self.total_seconds:.3f}s)")
            + "\n" + extra + "\n" + reuse
        )


def profile_training(build_trainer, features, targets=None, epochs: int = 3) -> ProfileReport:
    """Profile a training run on a fresh device.

    ``build_trainer()`` must construct and return an
    :class:`~repro.train.trainer.STGraphTrainer` (built *inside* the call so
    all allocations land on the profiled device).
    """
    import time

    device = Device(name="profile")
    with use_device(device):
        # The timing window includes trainer construction so one-time plan
        # compilation (a cold plan cache) is part of the profiled total.
        start = time.perf_counter()
        trainer = build_trainer()
        loss = 0.0
        for _ in range(epochs):
            loss = trainer.train_epoch(features, targets)
        total = time.perf_counter() - start
        stats = trainer.executor.stats()
        return ProfileReport(
            epochs=epochs,
            total_seconds=total,
            peak_memory_bytes=device.tracker.peak_bytes,
            state_stack_peak_depth=stats["state_stack_peak_depth"],
            state_stack_peak_bytes=stats["state_stack_peak_bytes"],
            graph_stack_peak_depth=stats["graph_stack_peak_depth"],
            final_loss=loss,
            totals=device.totals.read(),
        )
