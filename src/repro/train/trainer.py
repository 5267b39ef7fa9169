"""Training loops.

:class:`STGraphTrainer` is Algorithm 1: the epoch is split into ordered,
disjoint sequences; each sequence accumulates per-timestamp losses forward
(pushing State/Graph Stack entries), then a single backward drains both
stacks in LIFO order; ``end_sequence_forward`` gives GPMA its snapshot
cache point.  :class:`BaselineTrainer` runs the identical schedule on the
PyG-T baseline, where the autodiff tape itself retains the whole sequence's
intermediates (no stacks, no pruning).

Both report per-epoch wall time so benches can reuse the loop directly.

The STGraph loop records five intervals into the telemetry spine
(:mod:`repro.obs.spine`), one call each; the latency histograms, the
flight-ring timestamp marks and the trace spans all derive from them.
"""

from __future__ import annotations

import pathlib
import time
from typing import Callable, Sequence

import numpy as np

from repro.core.executor import TemporalExecutor
from repro.device import current_device
from repro.graph.base import STGraphBase
from repro.obs.server import TelemetryServer, TrainingProgress
from repro.obs.spine import span
from repro.resilience.faults import BOUNDARY, current_injector
from repro.tensor import functional as F
from repro.tensor import init, optim
from repro.tensor.nn import Module
from repro.tensor.tensor import Tensor
from repro.train.checkpoint import load_training_checkpoint, save_training_checkpoint
from repro.train.tasks import LinkSamples

__all__ = ["STGraphTrainer", "BaselineTrainer"]


def _sequences(total: int, length: int) -> list[range]:
    return [range(s, min(s + length, total)) for s in range(0, total, length)]


class _LossAccumulator:
    def __init__(self) -> None:
        self.total: Tensor | None = None

    def add(self, loss: Tensor) -> None:
        self.total = loss if self.total is None else F.add(self.total, loss)


class STGraphTrainer:
    """Algorithm 1 over any :class:`STGraphBase` graph."""

    def __init__(
        self,
        model: Module,
        graph: STGraphBase,
        optimizer: optim.Optimizer | None = None,
        lr: float = 1e-2,
        sequence_length: int | None = None,
        task: str = "regression",
        link_samples: Sequence[LinkSamples] | None = None,
        telemetry_port: int | None = None,
    ) -> None:
        if task not in ("regression", "link_prediction"):
            raise ValueError(f"unknown task {task!r}")
        if task == "link_prediction" and link_samples is None:
            raise ValueError("link_prediction task needs link_samples")
        self.model = model
        self.graph = graph
        self.optimizer = optimizer or optim.Adam(model.parameters(), lr=lr)
        self.sequence_length = sequence_length
        self.task = task
        self.link_samples = link_samples
        self.executor = TemporalExecutor(graph)
        self.epoch_times: list[float] = []
        #: checkpoint path this run resumed from (None for a fresh run);
        #: surfaced in the RunManifest's ``resumed_from`` field.
        self.resumed_from: str | None = None
        # telemetry_port = opt-in live scrape endpoint (0 = ephemeral port);
        # None keeps training headless.  The server runs on a daemon thread
        # for the duration of train() and never touches the numerics.
        self.telemetry_port = telemetry_port
        self.telemetry_server: TelemetryServer | None = None
        self.progress = TrainingProgress()

    def _loss_at(self, t: int, pred: Tensor, targets) -> Tensor:
        if self.task == "regression":
            return F.mse_loss(pred, targets[t])
        samples = self.link_samples[t]
        logits = self.model.score(pred, samples.pairs)
        return F.bce_with_logits_loss(logits, samples.labels)

    def train_epoch(self, features: Sequence[np.ndarray], targets: Sequence[np.ndarray] | None = None) -> float:
        """One epoch of Algorithm 1; returns the summed loss.

        Under an installed tracer the epoch is a span tree: ``train.epoch >
        train.sequence > train.timestamp > {core.begin_timestamp,
        core.engine_forward}`` on the way forward, then per-sequence
        ``tensor.backward`` (containing the ``core.engine_backward`` and
        ``core.backward_context`` spans of the LIFO walk) and
        ``tensor.optim_step``.
        """
        return self._train_epoch_impl(features, targets, epoch_index=len(self.epoch_times))

    def _train_epoch_impl(
        self,
        features: Sequence[np.ndarray],
        targets: Sequence[np.ndarray] | None,
        epoch_index: int,
        start_sequence: int = 0,
        epoch_loss: float = 0.0,
        boundary_hook: Callable[[int, int, float], None] | None = None,
    ) -> float:
        """Algorithm 1 with resume/fault plumbing.

        ``start_sequence``/``epoch_loss`` let a resumed run re-enter an epoch
        mid-way; ``boundary_hook(epoch, sequence, loss_so_far)`` fires at
        every completed sequence boundary (the checkpoint write point).  The
        active fault injector's cursor is advanced alongside the loop and
        planned ``"kill"`` sites fire at timestamp starts and — via
        ``timestamp=BOUNDARY`` — right after the boundary checkpoint.

        Any exception escaping a sequence (including :class:`SimulatedKill`,
        a ``BaseException``) triggers :meth:`TemporalExecutor.abort_sequence`
        before propagating, so the State/Graph Stacks are drained and
        ``check_drained()`` holds even after an aborted sequence.
        """
        injector = current_injector()
        engine_label = self.executor.engine.name
        progress = self.progress if self.telemetry_server is not None else None
        total_timestamps = len(features)
        seq_len = self.sequence_length or total_timestamps
        start = time.perf_counter()
        injector.at_epoch(epoch_index)
        with span("train.epoch", epoch=epoch_index):
            for seq_index, seq in enumerate(_sequences(total_timestamps, seq_len)):
                if seq_index < start_sequence:
                    continue
                injector.at_sequence(seq_index)
                with span("train.sequence", start=seq.start, stop=seq.stop):
                    try:
                        self.optimizer.zero_grad()
                        state = None
                        acc = _LossAccumulator()
                        for t in seq:  # forward over the sequence (Alg. 1 lines 8-16)
                            injector.at_timestamp(t)
                            injector.fire("kill")
                            with span("train.timestamp", t=t, epoch=epoch_index,
                                      sequence=seq_index, engine=engine_label):
                                self.executor.begin_timestamp(t)
                                pred, state = self.model.step(self.executor, Tensor(features[t]), state)
                                acc.add(self._loss_at(t, pred, targets))
                            if progress is not None:
                                progress.update(epoch=epoch_index, sequence=seq_index,
                                                timestamp=t)
                        self.executor.end_sequence_forward()
                        with span("tensor.backward", start=seq.start, stop=seq.stop):
                            acc.total.backward()  # LIFO backward (Alg. 1 lines 18-25)
                        self.executor.check_drained()
                        with span("tensor.optim_step"):
                            self.optimizer.step()
                        epoch_loss += acc.total.item()
                        if progress is not None:
                            progress.update(epoch_loss=epoch_loss)
                    except BaseException:
                        self.executor.abort_sequence()
                        raise
                # Sequence boundary: checkpoint first, then any planned
                # boundary kill — so a boundary kill always finds the state
                # it "died" after already durable on disk.
                injector.at_timestamp(BOUNDARY)
                if boundary_hook is not None:
                    boundary_hook(epoch_index, seq_index, epoch_loss)
                injector.fire("kill")
        self.epoch_times.append(time.perf_counter() - start)
        if progress is not None:
            progress.update(epochs_completed=epoch_index + 1, loss=epoch_loss)
        return epoch_loss

    def train(
        self,
        features,
        targets=None,
        epochs: int = 10,
        warmup: int = 0,
        *,
        checkpoint_path: str | pathlib.Path | None = None,
        checkpoint_every: int = 1,
        resume: bool = False,
    ) -> list[float]:
        """Run ``epochs`` epochs; the first ``warmup`` epoch times are
        dropped from :attr:`epoch_times` (GPU-warm-up convention, §VII).

        With ``checkpoint_path`` the run writes an atomic training
        checkpoint every ``checkpoint_every``-th sequence boundary (always
        at epoch boundaries): model params, optimizer state, initializer RNG
        state, the compiled plan ids, and the completed/partial losses.
        ``resume=True`` restores all of that and re-enters the schedule
        exactly where the checkpoint was taken, so a killed run finishes with
        bitwise-identical final losses (training itself draws no randomness,
        every loss float round-trips exactly through the checkpoint's JSON
        meta, and a snapshot's identity is a function of the DTDG, so the
        graph has nothing to checkpoint).
        """
        self.resumed_from = None
        self.start_telemetry()
        try:
            return self._train_impl(
                features, targets, epochs, warmup,
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every,
                resume=resume,
            )
        finally:
            self.stop_telemetry()

    def start_telemetry(self) -> int | None:
        """Start the scrape endpoint if ``telemetry_port`` was given.

        Idempotent; returns the bound port (useful with ``telemetry_port=0``)
        or None when telemetry is off.  ``train()`` calls this itself, but
        callers that need the URL before training starts (the CLI does) can
        call it first — the run's ``finally`` still stops the server.
        """
        if self.telemetry_port is None:
            return None
        if self.telemetry_server is None:
            server = TelemetryServer(
                current_device(), port=self.telemetry_port, progress=self.progress,
            )
            server.start()
            self.telemetry_server = server
        return self.telemetry_server.port

    def stop_telemetry(self) -> None:
        """Stop the scrape endpoint (no-op when none is running)."""
        server, self.telemetry_server = self.telemetry_server, None
        if server is not None:
            server.stop()

    def _train_impl(
        self,
        features,
        targets,
        epochs: int,
        warmup: int,
        *,
        checkpoint_path: str | pathlib.Path | None,
        checkpoint_every: int,
        resume: bool,
    ) -> list[float]:
        if checkpoint_path is None:
            if resume:
                raise ValueError("resume=True requires checkpoint_path")
            losses = [self.train_epoch(features, targets) for _ in range(epochs)]
            if warmup:
                self.epoch_times = self.epoch_times[warmup:]
            return losses

        from repro.compiler.plan import plan_cache

        path = pathlib.Path(checkpoint_path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        total_timestamps = len(features)
        seq_len = self.sequence_length or total_timestamps
        n_seq = len(_sequences(total_timestamps, seq_len))
        start_epoch = 0
        start_sequence = 0
        partial_loss = 0.0
        losses: list[float] = []
        if resume and path.exists():
            state = load_training_checkpoint(path, self.model, self.optimizer)
            if int(state["epochs_total"]) != int(epochs):
                raise ValueError(
                    f"checkpoint was taken for a {state['epochs_total']}-epoch "
                    f"run, cannot resume into {epochs} epochs"
                )
            cached = {p.plan_id for p in plan_cache().plans()}
            missing = [pid for pid in state.get("plan_ids", []) if pid not in cached]
            if missing:
                raise ValueError(
                    f"checkpoint plans missing from this process's plan cache: {missing}"
                )
            init.set_rng_state(state["rng_state"])
            start_epoch = int(state["epoch"])
            start_sequence = int(state["sequence"])
            partial_loss = float(state["epoch_loss"])
            losses = [float(x) for x in state["losses"]]
            self.resumed_from = str(path)

        def boundary_hook(epoch: int, sequence: int, loss_so_far: float) -> None:
            last_in_epoch = sequence + 1 >= n_seq
            if not last_in_epoch and (sequence + 1) % max(1, checkpoint_every):
                return
            next_epoch, next_sequence = (epoch + 1, 0) if last_in_epoch else (epoch, sequence + 1)
            save_training_checkpoint(
                path, self.model, self.optimizer,
                {
                    "epoch": next_epoch,
                    "sequence": next_sequence,
                    "epochs_total": int(epochs),
                    "losses": losses + [loss_so_far] if last_in_epoch else list(losses),
                    "epoch_loss": 0.0 if last_in_epoch else loss_so_far,
                    "rng_state": init.get_rng_state(),
                    "plan_ids": sorted(p.plan_id for p in plan_cache().plans()),
                },
            )

        for epoch in range(start_epoch, epochs):
            loss = self._train_epoch_impl(
                features, targets,
                epoch_index=epoch,
                start_sequence=start_sequence if epoch == start_epoch else 0,
                epoch_loss=partial_loss if epoch == start_epoch else 0.0,
                boundary_hook=boundary_hook,
            )
            losses.append(loss)
        if warmup:
            self.epoch_times = self.epoch_times[warmup:]
        return losses

    @property
    def mean_epoch_time(self) -> float:
        """Mean wall-clock seconds per (post-warmup) epoch."""
        return float(np.mean(self.epoch_times)) if self.epoch_times else float("nan")


class BaselineTrainer:
    """The same schedule for the PyG-T baseline (edge_index-driven)."""

    def __init__(
        self,
        model: Module,
        edge_indices: Sequence[np.ndarray] | np.ndarray,
        optimizer: optim.Optimizer | None = None,
        lr: float = 1e-2,
        sequence_length: int | None = None,
        task: str = "regression",
        link_samples: Sequence[LinkSamples] | None = None,
    ) -> None:
        if task not in ("regression", "link_prediction"):
            raise ValueError(f"unknown task {task!r}")
        if task == "link_prediction" and link_samples is None:
            raise ValueError("link_prediction task needs link_samples")
        self.model = model
        self.edge_indices = edge_indices
        self.optimizer = optimizer or optim.Adam(model.parameters(), lr=lr)
        self.sequence_length = sequence_length
        self.task = task
        self.link_samples = link_samples
        self.epoch_times: list[float] = []

    def _edge_index_at(self, t: int) -> np.ndarray:
        if isinstance(self.edge_indices, np.ndarray):
            return self.edge_indices  # static graph: one edge_index
        return self.edge_indices[t]

    def _loss_at(self, t: int, pred: Tensor, targets) -> Tensor:
        if self.task == "regression":
            return F.mse_loss(pred, targets[t])
        samples = self.link_samples[t]
        logits = self.model.score(pred, samples.pairs)
        return F.bce_with_logits_loss(logits, samples.labels)

    def train_epoch(self, features, targets=None) -> float:
        """One epoch of the same sequence schedule on the baseline."""
        total_timestamps = len(features)
        seq_len = self.sequence_length or total_timestamps
        start = time.perf_counter()
        epoch_loss = 0.0
        for seq in _sequences(total_timestamps, seq_len):
            self.optimizer.zero_grad()
            state = None
            acc = _LossAccumulator()
            for t in seq:
                pred, state = self.model.step(self._edge_index_at(t), Tensor(features[t]), state)
                acc.add(self._loss_at(t, pred, targets))
            acc.total.backward()
            self.optimizer.step()
            epoch_loss += acc.total.item()
        self.epoch_times.append(time.perf_counter() - start)
        return epoch_loss

    def train(self, features, targets=None, epochs: int = 10, warmup: int = 0) -> list[float]:
        """Run ``epochs`` epochs, dropping ``warmup`` epoch timings."""
        losses = [self.train_epoch(features, targets) for _ in range(epochs)]
        if warmup:
            self.epoch_times = self.epoch_times[warmup:]
        return losses

    @property
    def mean_epoch_time(self) -> float:
        """Mean wall-clock seconds per (post-warmup) epoch."""
        return float(np.mean(self.epoch_times)) if self.epoch_times else float("nan")
