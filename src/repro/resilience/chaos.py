"""The chaos harness: run training under a fault plan and prove recovery.

:func:`run_chaos` is what ``repro chaos`` (and the gating CI smoke step)
executes.  It trains a small DTDG link-prediction workload twice:

1. an **uninterrupted reference** run, and
2. a **chaos** run under the given :class:`~repro.resilience.faults.FaultPlan`
   with boundary checkpointing — every :class:`SimulatedKill` tears the
   trainer down (fresh model, fresh graph, fresh optimizer, like a new
   process) and the run resumes from the last checkpoint until it finishes.

The harness then verifies the resilience contract end to end:

* final losses are **bitwise identical** to the reference run (injected
  kernel faults included — the interpreter fallback is bitwise-equal by
  construction, and resume replays the exact schedule);
* the executor's State/Graph Stacks are **drained** after every kill
  (``check_drained()`` passes on the aborted trainer);
* every planned fault actually **fired** (a plan that silently misses its
  sites proves nothing);
* kernel faults walked the **degradation ladder** (≥1 retry; an interpreter
  fallback whenever a site out-fired the single retry).

One device is shared across kill/resume attempts so the device totals' fault
counters and the :class:`~repro.obs.manifest.RunManifest` describe the whole
chaos run; checkpoints never depend on device state, so this does not weaken
the resume claim (the test suite separately resumes across fresh devices).
"""

from __future__ import annotations

import contextlib
import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Any

from repro.resilience.faults import FaultInjector, FaultPlan, SimulatedKill, use_fault_plan

__all__ = ["ChaosReport", "run_chaos"]

#: Event counters the report surfaces (summed over all resume attempts,
#: since the device is shared across them).
_LADDER_COUNTERS = (
    "faults_injected",
    "kernel_retries",
    "engine_fallbacks",
    "cache_fault_rebuilds",
    "sequence_aborts",
)


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos` invocation."""

    plan: dict
    dataset: str
    epochs: int
    sequence_length: int
    timestamps: int
    kills: int
    reference_losses: list[float]
    chaos_losses: list[float]
    bitwise_identical: bool
    drained_after_each_kill: bool
    plan_exhausted: bool
    ladder_ok: bool
    faults_injected: dict[str, int]
    counters: dict[str, int]
    executor_stats: dict[str, int]
    manifest: Any = field(repr=False, default=None)
    #: flight-recorder summary when one was armed (``--flight-recorder``):
    #: {path, events_recorded, drains, captured_fault_window}
    flight_recorder: dict | None = None

    @property
    def ok(self) -> bool:
        """The full resilience contract held."""
        recorder_ok = (
            self.flight_recorder is None
            or not self.plan.get("sites")
            or self.flight_recorder.get("captured_fault_window", False)
        )
        return (
            self.bitwise_identical
            and self.drained_after_each_kill
            and self.plan_exhausted
            and self.ladder_ok
            and recorder_ok
        )

    def to_dict(self) -> dict:
        """JSON-ready form (manifest inlined)."""
        data = {
            k: v for k, v in self.__dict__.items() if k != "manifest"
        }
        data["ok"] = self.ok
        if self.manifest is not None:
            data["manifest"] = self.manifest.to_dict()
        return data

    def render(self) -> str:
        """Human-readable verdict block."""
        mark = "PASS" if self.ok else "FAIL"
        lines = [
            f"chaos {self.plan.get('name', '?')!r} on {self.dataset}: {mark}",
            f"  schedule         : {self.epochs} epochs x {self.timestamps} timestamps"
            f" (sequences of {self.sequence_length})",
            f"  kills / resumes  : {self.kills}",
            f"  faults injected  : {self.faults_injected or '{}'}",
            f"  ladder           : retries={self.counters.get('kernel_retries', 0)}"
            f" fallbacks={self.counters.get('engine_fallbacks', 0)}"
            f" aborts={self.counters.get('sequence_aborts', 0)}"
            f" [{'ok' if self.ladder_ok else 'BROKEN'}]",
            f"  stacks drained   : {'yes' if self.drained_after_each_kill else 'NO'}",
            f"  plan exhausted   : {'yes' if self.plan_exhausted else 'NO'}",
            f"  bitwise losses   : {'identical' if self.bitwise_identical else 'DIVERGED'}",
        ]
        if self.flight_recorder is not None:
            fr = self.flight_recorder
            lines.append(
                f"  flight recorder  : {fr.get('events_recorded', 0)} events, "
                f"{fr.get('drains', 0)} drains -> {fr.get('path') or '(unwritten)'}"
                f" [{'captured' if fr.get('captured_fault_window') else 'MISSED'}]"
            )
        if not self.bitwise_identical:
            lines.append(f"    reference: {self.reference_losses}")
            lines.append(f"    chaos    : {self.chaos_losses}")
        return "\n".join(lines)


def _validate_plan(plan: FaultPlan, epochs: int, timestamps: int) -> None:
    for site in plan.sites:
        if site.epoch is not None and site.epoch >= epochs:
            raise ValueError(
                f"fault site {site.to_dict()} targets epoch {site.epoch} "
                f"but the chaos workload runs only {epochs} epochs"
            )
        if site.timestamp is not None and site.timestamp >= timestamps:
            raise ValueError(
                f"fault site {site.to_dict()} targets timestamp {site.timestamp} "
                f"but the chaos workload has only {timestamps} timestamps"
            )


def run_chaos(
    plan: FaultPlan,
    dataset: str = "sx-mathoverflow",
    scale: float = 0.02,
    hidden: int = 8,
    epochs: int = 3,
    sequence_length: int = 3,
    max_snapshots: int = 6,
    seed: int = 0,
    lr: float = 1e-2,
    samples_per_timestamp: int = 32,
    workdir: str | pathlib.Path | None = None,
    tracer: Any | None = None,
    max_resumes: int = 8,
    flight_recorder: str | pathlib.Path | None = None,
) -> ChaosReport:
    """Run the chaos schedule for ``plan``; returns a :class:`ChaosReport`.

    Defaults give the ``smoke`` workload: 3 epochs over 6 snapshots of a
    small ``sx-mathoverflow`` stand-in, in sequences of 3 (sequences 0 and
    1 per epoch).  ``tracer`` (a :class:`~repro.obs.tracer.Tracer`) records
    the chaos run only, so fault/retry/fallback instants land in the
    exported Chrome trace.  Both runs start on the kernel engine; a kernel
    fault walks the ladder kernel → interpreter.
    ``flight_recorder`` arms a :class:`~repro.obs.flight.FlightRecorder`
    on the chaos run; every kill/abort/fallback appends its last-N-events
    window to the given JSONL path, and the report (plus its ``ok``
    verdict, when the plan has sites) asserts the fault window was
    actually captured.
    """
    import numpy as np

    from repro.dataset.dynamic_datasets import DYNAMIC_DATASETS
    from repro.device import Device, use_device
    from repro.obs import FlightRecorder, build_run_manifest, use_flight_recorder, use_tracer
    from repro.tensor import init
    from repro.train.models import STGraphLinkPredictor
    from repro.train.tasks import make_link_prediction_samples
    from repro.train.trainer import STGraphTrainer

    if dataset not in DYNAMIC_DATASETS:
        raise KeyError(f"unknown dataset {dataset!r}; available: {sorted(DYNAMIC_DATASETS)}")
    ds = DYNAMIC_DATASETS[dataset](scale=scale, max_snapshots=max_snapshots)
    features = ds.features
    _validate_plan(plan, epochs, len(features))
    samples = make_link_prediction_samples(ds.dtdg, samples_per_timestamp, seed=seed)

    def fresh_trainer() -> STGraphTrainer:
        init.set_seed(seed)
        model = STGraphLinkPredictor(ds.feature_size, hidden)
        return STGraphTrainer(
            model, ds.build_gpma(), lr=lr, sequence_length=sequence_length,
            task="link_prediction", link_samples=samples,
        )

    # 1. Uninterrupted reference run on its own device.
    with use_device(Device()):
        reference_losses = fresh_trainer().train(features, epochs=epochs)

    # 2. Chaos run: one injector carried across kill/resume attempts.
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    ckpt = pathlib.Path(workdir) / f"chaos-{plan.name}.npz"
    injector = FaultInjector(plan)
    device = Device()
    kills = 0
    drained = True
    tracer_ctx = use_tracer(tracer) if tracer is not None else contextlib.nullcontext()
    recorder = FlightRecorder(path=flight_recorder) if flight_recorder is not None else None
    recorder_ctx = (
        use_flight_recorder(recorder) if recorder is not None else contextlib.nullcontext()
    )
    with use_device(device), use_fault_plan(injector), tracer_ctx, recorder_ctx:
        while True:
            trainer = fresh_trainer()
            try:
                chaos_losses = trainer.train(
                    features, epochs=epochs,
                    checkpoint_path=ckpt, resume=ckpt.exists(),
                )
                break
            except SimulatedKill:
                kills += 1
                try:
                    trainer.executor.check_drained()
                except RuntimeError:
                    drained = False
                if kills > max_resumes:
                    raise RuntimeError(
                        f"chaos run still dying after {max_resumes} resumes; "
                        f"plan: {plan.to_dict()}"
                    ) from None
        manifest = build_run_manifest(
            device,
            graph=trainer.graph,
            run_name=f"chaos-{plan.name}",
            command=f"repro chaos --plan {plan.name}",
            system="stgraph",
            dataset=ds.name,
            results={
                "losses": chaos_losses,
                "reference_losses": reference_losses,
                "kills": kills,
            },
            resumed_from=trainer.resumed_from,
        )

    # the same totals snapshot the manifest holds
    counters = {name: manifest.counters[name] for name in _LADDER_COUNTERS}
    kernel_sites = [s for s in plan.sites if s.kind == "kernel"]
    ladder_ok = not kernel_sites or counters["kernel_retries"] >= 1
    if any(s.times >= 2 for s in kernel_sites):
        ladder_ok = ladder_ok and counters["engine_fallbacks"] >= 1

    bitwise = len(chaos_losses) == len(reference_losses) and all(
        np.float64(a) == np.float64(b) for a, b in zip(chaos_losses, reference_losses)
    )
    flight_summary = None
    if recorder is not None:
        # "Captured the fault window" = at least one drained window, and a
        # planned fault actually landed in the ring before a drain fired.
        captured = bool(recorder.drains) and any(
            d["events"] > 0 for d in recorder.drains
        )
        flight_summary = {
            "path": recorder.path,
            "events_recorded": recorder.total_recorded,
            "drains": recorder.drain_count(),
            "captured_fault_window": captured if plan.sites else True,
        }
    return ChaosReport(
        plan=plan.to_dict(),
        dataset=ds.name,
        epochs=epochs,
        sequence_length=sequence_length,
        timestamps=len(features),
        kills=kills,
        reference_losses=[float(x) for x in reference_losses],
        chaos_losses=[float(x) for x in chaos_losses],
        bitwise_identical=bool(bitwise),
        drained_after_each_kill=drained,
        plan_exhausted=injector.exhausted(),
        ladder_ok=bool(ladder_ok),
        faults_injected=injector.faults_injected(),
        counters=counters,
        executor_stats=trainer.executor.stats(),
        manifest=manifest,
        flight_recorder=flight_summary,
    )
