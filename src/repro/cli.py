"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``info``
    Library version, registered backends, available datasets and models.
``inspect --layer gcn``
    Compile a layer's vertex program and dump every compilation stage
    (vertex IR, tensor IR, generated kernels, State-Stack analysis).
``train --dataset HC --model tgcn --epochs 20``
    Train a model on a Table II dataset with Algorithm 1 and report loss,
    timing, and memory.  ``--system pygt`` runs the baseline instead.
    ``--checkpoint runs/ck.npz`` checkpoints atomically at every sequence
    boundary; adding ``--resume`` restores from the checkpoint and
    continues to bitwise-identical final losses.
``chaos --plan smoke``
    Train a small DTDG workload under a named (or JSON) fault plan with
    kill/resume through boundary checkpoints, and verify the resilience
    contract: bitwise-identical losses, drained stacks, and the kernel
    retry → interpreter-fallback ladder.  Non-zero exit on any violation.
``bench --experiment fig5``
    Run one of the paper's table/figure experiments and print it.
``lint``
    Compile every nn layer program (and, with ``--examples``, the vertex
    programs registered in ``examples/``) with build-time verification
    off, then run the full verifier suite on each plan and print the
    diagnostics.  ``--codes`` prints the STG0xx code table.  Exit status
    is non-zero iff any program has an error-severity diagnostic.
``serve --clients 16 --updates 8``
    Online serving: start an :class:`~repro.serve.InferenceEngine` over a
    live GPMA graph, drive closed-loop query clients concurrently with
    update-batch ingest, and report p50/p99 latency, throughput, and the
    reuse counters.  ``--verify`` bitwise-checks every response against
    the serial query-after-every-update reference; ``--telemetry-port``
    serves live ``/metrics`` while the traffic runs (``docs/SERVING.md``).

``train`` and ``bench`` also accept ``--trace out.json``: the run executes
under a :class:`~repro.obs.tracer.Tracer` and the same four artifacts are
written (``out.json``, ``out.events.jsonl``, ``out.manifest.json``,
``out.metrics.prom``).

``train --telemetry-port PORT`` additionally serves live ``/metrics``
(Prometheus), ``/healthz``, and ``/progress`` on ``127.0.0.1:PORT`` while
the run executes; ``train``/``chaos`` ``--flight-recorder out.jsonl`` arm
the bounded flight recorder (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

__all__ = ["main"]

_MODELS = ("tgcn", "gconv_gru", "gconv_lstm", "dcrnn", "a3tgcn")
_LAYERS = ("gcn", "gat", "sage", "cheb", "dconv")
_EXPERIMENTS = ("table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "table3")
_LINT_PROGRAMS = (
    "gcn", "gat", "sage", "cheb", "dconv", "rgcn",
    "tgcn", "gconv_gru", "gconv_lstm", "a3tgcn", "evolve_gcn", "dcrnn",
)


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.core.backend import available_backends
    from repro.dataset import DYNAMIC_DATASETS, STATIC_DATASETS

    print(f"repro {repro.__version__} — STGraph reproduction (IPDPS 2024)")
    print(f"backends: {', '.join(available_backends())}")
    print(f"static datasets:  {', '.join(STATIC_DATASETS)}")
    print(f"dynamic datasets: {', '.join(DYNAMIC_DATASETS)}")
    print(f"models: {', '.join(_MODELS)}")
    print(f"layers: {', '.join(_LAYERS)}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.nn import ChebConv, DConv, GATConv, GCNConv, SAGEConv

    factories = {
        "gcn": lambda: GCNConv(args.features, args.features),
        "gat": lambda: GATConv(args.features, args.features),
        "sage": lambda: SAGEConv(args.features, args.features),
        "cheb": lambda: ChebConv(args.features, args.features, k=3),
        "dconv": lambda: DConv(args.features, args.features, k=2),
    }
    layer = factories[args.layer]()
    if args.dot:
        from repro.compiler.viz import tensor_ir_to_dot, vertex_ir_to_dot

        print(vertex_ir_to_dot(layer.program.traced.root, name=f"{args.layer}_vertex_ir"))
        print(tensor_ir_to_dot(layer.program.fwd_prog))
        print(tensor_ir_to_dot(layer.program.bwd_prog))
        return 0
    print(layer.program.describe())
    print("\n=== generated forward kernel ===")
    print(layer.program.forward_source)
    print("=== generated backward kernel ===")
    print(layer.program.backward_source)
    return 0


def _build_model(name: str, in_features: int, hidden: int):
    from repro.nn import DCRNN, GConvGRU, GConvLSTM, TGCN
    from repro.tensor import functional as F
    from repro.tensor.nn import Linear, Module

    class Regressor(Module):
        def __init__(self, cell, lstm: bool = False) -> None:
            super().__init__()
            self.cell = cell
            self.head = Linear(hidden, 1)
            self.lstm = lstm

        def step(self, executor, x, state):
            if self.lstm:
                h, c = self.cell(executor, x, *(state if state else (None, None)))
                return self.head(h), (h, c)
            h = self.cell(executor, x, state)
            return self.head(h), h

    if name == "tgcn":
        return Regressor(TGCN(in_features, hidden))
    if name == "gconv_gru":
        return Regressor(GConvGRU(in_features, hidden))
    if name == "gconv_lstm":
        return Regressor(GConvLSTM(in_features, hidden), lstm=True)
    if name == "dcrnn":
        return Regressor(DCRNN(in_features, hidden, k=2))
    if name == "a3tgcn":
        raise SystemExit("a3tgcn needs windowed inputs; see examples/ for usage")
    raise SystemExit(f"unknown model {name!r}")


def _trace_base(trace_path: str) -> str:
    return trace_path[:-5] if trace_path.endswith(".json") else trace_path


def _write_trace_artifacts(
    tracer,
    device,
    trace_path: str,
    graph=None,
    system: str = "",
    dataset: str = "",
    command: str = "",
    results: dict | None = None,
    resumed_from: str | None = None,
) -> None:
    """Write the four observability artifacts next to ``trace_path``."""
    from repro.obs import build_run_manifest, write_chrome_trace, write_jsonl, write_prometheus

    base = _trace_base(trace_path)
    chrome = write_chrome_trace(tracer, base + ".json")
    jsonl = write_jsonl(tracer.events, base + ".events.jsonl")
    manifest = build_run_manifest(
        device, graph=graph,
        run_name=tracer.name, command=command,
        system=system, dataset=dataset, results=results,
        resumed_from=resumed_from,
    )
    manifest_path = manifest.write(base + ".manifest.json")
    prom = write_prometheus(device, base + ".metrics.prom")
    print(f"chrome trace:  {chrome}")
    print(f"event log:     {jsonl}")
    print(f"run manifest:  {manifest_path}")
    print(f"metrics dump:  {prom}")


def _start_telemetry(trainer) -> None:
    """Start the trainer's scrape endpoint (if configured) and print its URL."""
    port = trainer.start_telemetry()
    if port is not None:
        print(f"telemetry: http://127.0.0.1:{port} (/metrics /healthz /progress)")


def _cmd_train(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.dataset import DYNAMIC_DATASETS, STATIC_DATASETS
    from repro.device import Device, use_device
    from repro.obs import Tracer, use_tracer
    from repro.tensor import init
    from repro.train import (
        BaselineTrainer,
        PyGTNodeRegressor,
        STGraphLinkPredictor,
        STGraphTrainer,
        make_link_prediction_samples,
        temporal_train_test_split,
    )

    trace_path = args.trace
    checkpoint_path = args.checkpoint
    resume = args.resume
    telemetry_port = args.telemetry_port
    flight_path = args.flight_recorder
    if resume and checkpoint_path is None:
        raise SystemExit("--resume requires --checkpoint PATH")
    if checkpoint_path is not None and args.system == "pygt":
        raise SystemExit("--checkpoint/--resume are STGraph-only; the pygt baseline has no resume path")
    if telemetry_port is not None and args.system == "pygt":
        raise SystemExit("--telemetry-port is STGraph-only; the pygt baseline has no telemetry hooks")
    if flight_path is not None and args.system == "pygt":
        raise SystemExit("--flight-recorder is STGraph-only; the pygt baseline has no failure hooks")
    tracer = Tracer(name=f"train:{args.dataset}:{args.model}") if trace_path else None
    device = Device(name="cli")
    recorder = None
    flight_ctx = contextlib.nullcontext()
    if flight_path is not None:
        from repro.obs import FlightRecorder, use_flight_recorder

        recorder = FlightRecorder(path=flight_path)
        flight_ctx = use_flight_recorder(recorder)
    with use_device(device), use_tracer(tracer), flight_ctx:
        init.set_seed(args.seed)
        if args.dataset in STATIC_DATASETS:
            ds = STATIC_DATASETS[args.dataset](
                lags=args.features, scale=args.scale, num_timestamps=args.timestamps
            )
            print(f"dataset: {ds.summary_row()}")
            tr_x, te_x, tr_y, te_y = temporal_train_test_split(ds.features, ds.targets, 0.8)
            if args.system == "pygt":
                model = PyGTNodeRegressor(args.features, args.hidden)
                trainer = BaselineTrainer(
                    model, ds.to_pygt_signal().edge_index,
                    lr=args.lr, sequence_length=args.sequence_length,
                )
            else:
                model = _build_model(args.model, args.features, args.hidden)
                trainer = STGraphTrainer(
                    model, ds.build_graph(), lr=args.lr,
                    sequence_length=args.sequence_length,
                    telemetry_port=telemetry_port,
                )
                _start_telemetry(trainer)
            if checkpoint_path is not None:
                losses = trainer.train(
                    tr_x, tr_y, epochs=args.epochs, warmup=min(2, args.epochs - 1),
                    checkpoint_path=checkpoint_path, resume=resume,
                )
            else:
                losses = trainer.train(tr_x, tr_y, epochs=args.epochs, warmup=min(2, args.epochs - 1))
        elif args.dataset in DYNAMIC_DATASETS:
            if args.system == "pygt" or args.model != "tgcn":
                raise SystemExit("dynamic CLI training supports --system stgraph --model tgcn")
            ds = DYNAMIC_DATASETS[args.dataset](
                scale=args.scale, feature_size=args.features, max_snapshots=args.timestamps
            )
            print(f"dataset: {ds.summary_row()}")
            samples = make_link_prediction_samples(ds.dtdg, 128, seed=args.seed)
            model = STGraphLinkPredictor(args.features, args.hidden)
            trainer = STGraphTrainer(
                model, ds.build_gpma(), lr=args.lr,
                sequence_length=args.sequence_length,
                task="link_prediction", link_samples=samples,
                telemetry_port=telemetry_port,
            )
            _start_telemetry(trainer)
            if checkpoint_path is not None:
                losses = trainer.train(
                    ds.features, epochs=args.epochs, warmup=min(2, args.epochs - 1),
                    checkpoint_path=checkpoint_path, resume=resume,
                )
            else:
                losses = trainer.train(ds.features, epochs=args.epochs, warmup=min(2, args.epochs - 1))
        else:
            raise SystemExit(f"unknown dataset {args.dataset!r}; see `info`")

        resumed_from = getattr(trainer, "resumed_from", None)
        if resumed_from:
            print(f"resumed from: {resumed_from}")
        if recorder is not None:
            # A clean run still leaves the artifact: the final window shows
            # the last N things the run did before finishing.
            recorder.drain("run_end")
            print(
                f"flight recorder: {recorder.total_recorded} events, "
                f"{recorder.drain_count()} drain(s) -> {flight_path}"
            )
        print(f"loss: {losses[0]:.4f} -> {losses[-1]:.4f} over {args.epochs} epochs")
        print(f"per-epoch time: {trainer.mean_epoch_time * 1e3:.1f} ms")
        print(f"peak device memory: {device.tracker.peak_bytes / 1e6:.2f} MB")
        totals = device.totals.read()
        gnn, upd = totals.seconds("gnn"), totals.seconds("graph_update")
        if gnn + upd > 0:
            print(f"time split: gnn {100 * gnn / (gnn + upd):.1f}% / updates {100 * upd / (gnn + upd):.1f}%")
        if tracer is not None:
            _write_trace_artifacts(
                tracer, device, trace_path,
                graph=getattr(trainer, "graph", None),
                system=args.system, dataset=args.dataset,
                command=f"repro train --dataset {args.dataset} --model {args.model} "
                        f"--epochs {args.epochs} --seed {args.seed}",
                results={
                    "first_loss": float(losses[0]),
                    "final_loss": float(losses[-1]),
                    "per_epoch_seconds": trainer.mean_epoch_time,
                },
                resumed_from=resumed_from,
            )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.obs import Tracer
    from repro.resilience import FaultPlan, NAMED_PLANS, named_plan, run_chaos

    if args.plan in NAMED_PLANS:
        plan = named_plan(args.plan)
    elif pathlib.Path(args.plan).is_file():
        plan = FaultPlan.from_json(args.plan)
    else:
        raise SystemExit(
            f"unknown plan {args.plan!r}: expected one of {sorted(NAMED_PLANS)} "
            f"or a path to a fault-plan JSON file"
        )

    trace_path = getattr(args, "trace", None)
    tracer = Tracer(name=f"chaos:{plan.name}") if trace_path else None
    report = run_chaos(
        plan,
        dataset=args.dataset,
        scale=args.scale,
        epochs=args.epochs,
        sequence_length=args.sequence_length,
        max_snapshots=args.timestamps,
        seed=args.seed,
        workdir=args.workdir,
        tracer=tracer,
        flight_recorder=getattr(args, "flight_recorder", None),
    )
    print(report.render())
    if args.json:
        out = pathlib.Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
        print(f"report: {out}")
    if tracer is not None:
        from repro.obs import write_chrome_trace

        base = _trace_base(trace_path)
        chrome = write_chrome_trace(tracer, base + ".json")
        manifest_path = report.manifest.write(base + ".manifest.json")
        print(f"chrome trace:  {chrome}")
        print(f"run manifest:  {manifest_path}")
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.device import current_device
    from repro.obs import Tracer, use_tracer

    trace_path = getattr(args, "trace", None)
    tracer = Tracer(name=f"bench:{args.experiment}") if trace_path else None
    start = time.perf_counter()
    with use_tracer(tracer):
        _run_bench_experiment(args)
    print(f"\n({time.perf_counter() - start:.1f}s)")
    if tracer is not None:
        _write_trace_artifacts(
            tracer, current_device(), trace_path,
            system="stgraph", dataset=args.experiment,
            command=f"repro bench --experiment {args.experiment}",
        )
    return 0


def _run_bench_experiment(args: argparse.Namespace) -> None:
    from repro.bench import experiments as exp

    if args.experiment == "table1":
        print(exp.table1_capabilities()[1])
    elif args.experiment == "table2":
        print(exp.table2_datasets()[1])
    elif args.experiment == "fig5":
        print(exp.fig5_static_time(feature_sizes=(8, 32))[1])
    elif args.experiment == "fig6":
        print(exp.fig6_static_memory(sequence_lengths=(5, 15))[1])
    elif args.experiment == "fig7":
        print(exp.fig7_dtdg_time(feature_sizes=(8, 64))[1])
    elif args.experiment == "fig8":
        print(exp.fig8_dtdg_memory(percent_changes=(1.0, 10.0))[1])
    elif args.experiment == "fig9":
        print(exp.fig9_time_breakup(feature_sizes=(8, 64))[1])
    elif args.experiment == "table3":
        static, _ = exp.fig5_static_time(feature_sizes=(8, 32))
        dyn_t, _ = exp.fig7_dtdg_time(feature_sizes=(8, 64))
        dyn_m, _ = exp.fig8_dtdg_memory(percent_changes=(2.0, 10.0))
        print(exp.table3_summary(static, dyn_t, dyn_m)[1])


def _lint_factories(features: int) -> dict:
    """Constructors for every nn program ``repro lint`` verifies."""
    from repro.nn import (
        A3TGCN,
        DCRNN,
        ChebConv,
        DConv,
        EvolveGCNO,
        GATConv,
        GConvGRU,
        GConvLSTM,
        GCNConv,
        RGCNConv,
        SAGEConv,
        TGCN,
    )

    f = features
    return {
        "gcn": lambda: GCNConv(f, f),
        "gat": lambda: GATConv(f, f, heads=2),
        "sage": lambda: SAGEConv(f, f),
        "cheb": lambda: ChebConv(f, f, k=3),
        "dconv": lambda: DConv(f, f, k=2),
        "rgcn": lambda: RGCNConv(f, f, num_relations=3),
        "tgcn": lambda: TGCN(f, f),
        "gconv_gru": lambda: GConvGRU(f, f),
        "gconv_lstm": lambda: GConvLSTM(f, f),
        "a3tgcn": lambda: A3TGCN(f, f, periods=3),
        "evolve_gcn": lambda: EvolveGCNO(f, f),
        "dcrnn": lambda: DCRNN(f, f, k=2),
    }


def _lint_example_specs() -> list:
    """(fn, widths, grads, name) tuples from ``LINT_SPECS`` in examples/."""
    import importlib.util
    from pathlib import Path

    specs: list = []
    root = Path(__file__).resolve().parents[2] / "examples"
    if not root.is_dir():
        return specs
    for path in sorted(root.glob("*.py")):
        if "LINT_SPECS" not in path.read_text(encoding="utf-8"):
            continue
        module_spec = importlib.util.spec_from_file_location(f"_repro_lint_{path.stem}", path)
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        specs.extend(getattr(module, "LINT_SPECS", []))
    return specs


def _cmd_lint_concurrency(args: argparse.Namespace) -> int:
    """``repro lint --concurrency``: lock-discipline static analysis gate.

    Analyzes the installed ``repro`` package sources (or ``--path``) with
    :mod:`repro.analysis.lockcheck`, subtracts the committed baseline, and
    fails on any *new* finding.  ``--write-baseline`` re-fingerprints the
    current findings instead (each new entry still needs a human
    justification edited into the JSON before it should be committed).
    """
    from pathlib import Path

    from repro.analysis.lockcheck import (
        analyze_path,
        apply_baseline,
        default_baseline_path,
        load_baseline,
        write_baseline,
    )

    root = Path(args.path) if args.path else Path(__file__).resolve().parent
    baseline_path = Path(args.baseline) if args.baseline else default_baseline_path()
    report = analyze_path(root)

    if args.write_baseline:
        entries = write_baseline(report, baseline_path)
        print(f"wrote {len(entries)} baseline entr{'y' if len(entries) == 1 else 'ies'} "
              f"to {baseline_path}")
        missing = [e for e in entries if e.justification.startswith("TODO")]
        if missing:
            print(f"  {len(missing)} entr(ies) need a justification before commit")
        return 0

    baseline = load_baseline(baseline_path)
    new, baselined, unused = apply_baseline(report, baseline)
    for diag in new.diagnostics:
        print(f"  {diag.render()}")
    if baselined:
        print(f"  {len(baselined)} baselined finding(s) suppressed "
              f"({baseline_path.name})")
    for entry in unused:
        print(f"  note: stale baseline entry {entry.code} at {entry.where} "
              "no longer fires; remove it")
    errors, warnings = len(new.errors), len(new.warnings)
    print(f"concurrency lint over {root}: {errors} new error(s), "
          f"{warnings} new warning(s)")
    return 1 if errors else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.compiler import plan_cache, verify_plan, verification_disabled
    from repro.compiler.diagnostics import code_table

    if args.codes:
        for code, severity, description in code_table():
            print(f"{code}  {severity:<7s}  {description}")
        return 0

    if args.concurrency or args.write_baseline:
        return _cmd_lint_concurrency(args)

    cache = plan_cache()
    # Build with the verifier off so broken programs *report* instead of
    # raising mid-construction — `repro lint` is the on-demand batch mode.
    # Every plan in the process-wide cache is then verified, whether it was
    # built here or already warm.
    with verification_disabled():
        names = _LINT_PROGRAMS if args.layer == "all" else (args.layer,)
        factories = _lint_factories(args.features)
        for name in names:
            factories[name]()
        if args.examples:
            for fn, widths, grads, name in _lint_example_specs():
                cache.get_or_build(fn, feature_widths=widths, grad_features=grads, name=name)

    plans = cache.plans()
    errors = warnings = 0
    for plan in plans:
        report = verify_plan(plan)
        errors += len(report.errors)
        warnings += len(report.warnings)
        status = "ok" if report.ok() else report.summary().split(": ", 1)[1]
        print(f"  {plan.name:<24s} {status}")
        for diag in report.diagnostics:
            print(f"    {diag.render()}")
    print(f"linted {len(plans)} program(s): {errors} error(s), {warnings} warning(s)")
    return 1 if errors else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from repro.dataset import DYNAMIC_DATASETS
    from repro.device import Device, use_device
    from repro.serve import (
        InferenceEngine,
        ServingHarness,
        random_update_batches,
        serial_reference,
    )
    from repro.tensor import init

    if args.dataset not in DYNAMIC_DATASETS:
        raise SystemExit(
            f"serving needs a dynamic (DTDG) dataset; got {args.dataset!r} — see `info`"
        )
    device = Device(name="cli")
    with use_device(device):
        init.set_seed(args.seed)
        ds = DYNAMIC_DATASETS[args.dataset](
            scale=args.scale, feature_size=args.features, max_snapshots=args.timestamps
        )
        print(f"dataset: {ds.summary_row()}")
        graph = ds.build_gpma()
        feats = np.ascontiguousarray(ds.features[-1], dtype=np.float32)
        model = _build_model(args.model, args.features, args.hidden)
        updates = random_update_batches(graph.dtdg, args.updates, seed=args.seed)

        server = None
        if args.telemetry_port is not None:
            from repro.obs.server import TelemetryServer

            server = TelemetryServer(device, port=args.telemetry_port)
            server.start()
            print(f"telemetry: {server.url} (/metrics /healthz /progress)")
        engine = InferenceEngine(
            model, graph, feats,
            hops=args.hops,
            batching=not args.no_batching,
            invalidation=not args.no_invalidation,
        )
        try:
            with engine:
                harness = ServingHarness(
                    engine,
                    clients=args.clients,
                    requests_per_client=args.requests,
                    kinds=("embedding", "prediction"),
                    updates=updates,
                    qps=args.qps,
                    seed=args.seed,
                    collect=args.verify,
                )
                report = harness.run(timeout=args.timeout)
        finally:
            if server is not None:
                server.stop()

        stats = report.engine_stats
        print(
            f"served {report.requests} requests in {report.duration_s:.2f}s "
            f"({report.qps:.0f} qps) across {report.updates_applied} update batches"
        )
        print(
            f"latency: p50 {report.p50_ms:.3f} ms / p99 {report.p99_ms:.3f} ms "
            f"/ max {report.max_ms:.3f} ms"
        )
        print(
            f"reuse: {stats['forwards']} forwards for {stats['batches_served']} batches, "
            f"{stats['row_cache_hits']} row-cache hits, "
            f"{stats['rows_invalidated']} rows invalidated"
        )
        mismatches = 0
        if args.verify:
            ref = serial_reference(
                model, graph.dtdg, feats,
                sorted({r.timestamp for r in report.results}),
            )
            for res in report.results:
                expect = ref[res.timestamp][0 if res.kind == "embedding" else 1]
                if not np.array_equal(res.value, expect[res.vertex]):
                    mismatches += 1
            verdict = "bitwise-equal" if mismatches == 0 else f"{mismatches} MISMATCHES"
            print(f"serial-reference check: {report.requests} responses {verdict}")
        if args.json:
            payload = {
                "config": {
                    "dataset": args.dataset, "model": args.model,
                    "clients": args.clients, "requests_per_client": args.requests,
                    "updates": args.updates,
                    "hops": args.hops, "batching": not args.no_batching,
                    "invalidation": not args.no_invalidation, "seed": args.seed,
                },
                "report": report.row(),
                "stats": {k: v for k, v in stats.items()},
                "mismatches": mismatches if args.verify else None,
            }
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            print(f"report json: {args.json}")
        return 1 if mismatches else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse arguments and dispatch to a subcommand."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library/version/dataset overview")

    p_inspect = sub.add_parser("inspect", help="dump a layer's compilation stages")
    p_inspect.add_argument("--layer", choices=_LAYERS, default="gcn")
    p_inspect.add_argument("--features", type=int, default=8)
    p_inspect.add_argument("--dot", action="store_true", help="emit Graphviz dot instead of text")

    p_train = sub.add_parser("train", help="train a model on a Table II dataset")
    p_train.add_argument("--dataset", default="HC")
    p_train.add_argument("--model", choices=_MODELS, default="tgcn")
    p_train.add_argument("--system", choices=("stgraph", "pygt"), default="stgraph")
    p_train.add_argument("--epochs", type=int, default=20)
    p_train.add_argument("--features", type=int, default=8)
    p_train.add_argument("--hidden", type=int, default=16)
    p_train.add_argument("--lr", type=float, default=1e-2)
    p_train.add_argument("--sequence-length", type=int, default=None)
    p_train.add_argument("--timestamps", type=int, default=40)
    p_train.add_argument("--scale", type=float, default=1.0)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--trace", metavar="OUT.json", default=None,
                         help="trace the run; writes OUT.json (Chrome trace), "
                              "OUT.events.jsonl, OUT.manifest.json, OUT.metrics.prom")
    p_train.add_argument("--checkpoint", metavar="PATH.npz", default=None,
                         help="write an atomic training checkpoint at every sequence boundary")
    p_train.add_argument("--resume", action="store_true",
                         help="resume from --checkpoint if it exists (bitwise-identical losses)")
    p_train.add_argument("--telemetry-port", type=int, default=None, metavar="PORT",
                         help="serve live /metrics, /healthz, and /progress on 127.0.0.1:PORT "
                              "for the duration of the run (0 = pick an ephemeral port)")
    p_train.add_argument("--flight-recorder", metavar="OUT.jsonl", default=None,
                         help="arm the flight recorder; failure edges (aborts, fallbacks, "
                              "kills) and the run end append their last-N-events window here")

    p_chaos = sub.add_parser("chaos", help="fault-injected train/kill/resume run with verification")
    p_chaos.add_argument("--plan", default="smoke",
                         help="named plan (smoke, kill-matrix) or path to a fault-plan JSON file")
    p_chaos.add_argument("--dataset", default="sx-mathoverflow")
    p_chaos.add_argument("--epochs", type=int, default=3)
    p_chaos.add_argument("--sequence-length", type=int, default=3)
    p_chaos.add_argument("--timestamps", type=int, default=6)
    p_chaos.add_argument("--scale", type=float, default=0.02)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--workdir", default=None,
                         help="directory for the chaos checkpoint (default: a fresh temp dir)")
    p_chaos.add_argument("--json", metavar="OUT.json", default=None,
                         help="write the full ChaosReport (manifest inlined) as JSON")
    p_chaos.add_argument("--trace", metavar="OUT.json", default=None,
                         help="trace the chaos run; writes the Chrome trace and run manifest")
    p_chaos.add_argument("--flight-recorder", metavar="OUT.jsonl", default=None,
                         help="arm the flight recorder on the chaos run; every kill/abort/"
                              "fallback appends its event window, and the report verifies "
                              "the fault window was captured")

    p_bench = sub.add_parser("bench", help="run one paper experiment")
    p_bench.add_argument("--experiment", choices=_EXPERIMENTS, required=True)
    p_bench.add_argument("--trace", metavar="OUT.json", default=None,
                         help="trace the experiment; writes the same artifact set as train --trace")

    p_lint = sub.add_parser("lint", help="run the compiler verifier over layer programs")
    p_lint.add_argument("--layer", choices=_LINT_PROGRAMS + ("all",), default="all")
    p_lint.add_argument("--features", type=int, default=8)
    p_lint.add_argument("--examples", action="store_true",
                        help="also verify vertex programs registered via LINT_SPECS in examples/")
    p_lint.add_argument("--codes", action="store_true",
                        help="print the diagnostic code table (STG0xx/STG1xx compiler, "
                             "STG2xx concurrency) and exit")
    p_lint.add_argument("--concurrency", action="store_true",
                        help="run the lock-discipline static analyzer (STG2xx) over the "
                             "installed repro sources; exits non-zero on non-baselined errors")
    p_lint.add_argument("--path", default=None, metavar="DIR",
                        help="analyze DIR instead of the installed repro package "
                             "(with --concurrency)")
    p_lint.add_argument("--baseline", default=None, metavar="JSON",
                        help="baseline file for --concurrency (default: the committed "
                             "src/repro/analysis/BASELINE.json)")
    p_lint.add_argument("--write-baseline", action="store_true",
                        help="refingerprint current --concurrency findings into the baseline "
                             "instead of gating on them")

    p_serve = sub.add_parser(
        "serve", help="request-batched online inference over a live GPMA graph"
    )
    p_serve.add_argument("--dataset", default="sx-mathoverflow")
    p_serve.add_argument("--model", choices=("tgcn", "gconv_gru", "dcrnn"), default="tgcn")
    p_serve.add_argument("--features", type=int, default=8)
    p_serve.add_argument("--hidden", type=int, default=16)
    p_serve.add_argument("--timestamps", type=int, default=8)
    p_serve.add_argument("--scale", type=float, default=0.02)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--clients", type=int, default=8,
                         help="closed-loop query client threads")
    p_serve.add_argument("--requests", type=int, default=64,
                         help="point queries per client")
    p_serve.add_argument("--updates", type=int, default=8,
                         help="GPMA update batches ingested during the run")
    p_serve.add_argument("--hops", type=int, default=1,
                         help="receptive-field hops for dirty-set invalidation "
                              "(match the model depth)")
    p_serve.add_argument("--qps", type=float, default=None,
                         help="per-client pacing (default: maximum rate)")
    p_serve.add_argument("--timeout", type=float, default=120.0)
    p_serve.add_argument("--no-batching", action="store_true",
                         help="ablation: dispatch one forward per query instead of "
                              "coalescing concurrent requests")
    p_serve.add_argument("--no-invalidation", action="store_true",
                         help="ablation: invalidate every vertex on each update batch")
    p_serve.add_argument("--verify", action="store_true",
                         help="bitwise-check every response against the serial "
                              "query-after-every-update reference (exit 1 on mismatch)")
    p_serve.add_argument("--telemetry-port", type=int, default=None, metavar="PORT",
                         help="serve live /metrics on 127.0.0.1:PORT while traffic runs "
                              "(0 = pick an ephemeral port)")
    p_serve.add_argument("--json", metavar="OUT.json", default=None,
                         help="write the serving report + engine counters as JSON")

    args = parser.parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "inspect": _cmd_inspect,
        "train": _cmd_train,
        "chaos": _cmd_chaos,
        "bench": _cmd_bench,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # output piped into head/less that closed early
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
