"""Regenerate every table and figure of the paper's evaluation section.

Prints the paper-style tables/series and (with ``--write``) refreshes the
measured sections of EXPERIMENTS.md.  Scales are controlled by the
environment (see ``repro.bench.experiments``):

    REPRO_BENCH_STATIC_SCALE=1.0 REPRO_BENCH_DYNAMIC_SCALE=0.05 \\
        python benchmarks/run_all.py --write

Defaults keep the full run under ~10 minutes on a laptop.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.bench.experiments import (
    bench_epochs,
    dynamic_scale,
    fig5_static_time,
    fig6_static_memory,
    fig7_dtdg_time,
    fig8_dtdg_memory,
    fig9_time_breakup,
    static_scale,
    table1_capabilities,
    table2_datasets,
    table3_summary,
)


def _micro_medians(repeats: int = 5) -> dict:
    """Median seconds for the context-store micro roundtrip, store on vs off.

    The same forward + LIFO-backward executor walk the micro-benchmarks
    time under pytest-benchmark, repeated ``repeats`` times inline so the
    nightly JSON carries comparable medians without the pytest harness.
    """
    import statistics

    from repro.core.executor import TemporalExecutor
    from repro.dataset import load_sx_mathoverflow
    from repro.device import Device, use_device
    from repro.graph import GPMAGraph

    ds = load_sx_mathoverflow(scale=0.02, feature_size=8, max_snapshots=12)

    def roundtrip(executor) -> None:
        for t in range(ds.num_timestamps):
            executor.begin_timestamp(t)
        for t in range(ds.num_timestamps - 1, -1, -1):
            executor.backward_context(t)

    out: dict = {}
    with use_device(Device(name="nightly-micro")):
        for label, enabled in (("backward_walk_cached", True), ("backward_walk_uncached", False)):
            executor = TemporalExecutor(
                GPMAGraph(ds.dtdg, enable_csr_cache=enabled), ctx_cache_size=ds.num_timestamps
            )
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                roundtrip(executor)
                times.append(time.perf_counter() - t0)
            out[f"{label}_median_s"] = round(statistics.median(times), 6)
    return out


def _nightly_reuse_counters() -> dict:
    """Snapshot/context reuse counters from one short DTDG training run."""
    from repro.bench import run_dynamic_experiment
    from repro.dataset import load_sx_mathoverflow

    r = run_dynamic_experiment(
        "gpma", load_sx_mathoverflow,
        scale=0.02, feature_size=8, max_snapshots=12,
        sequence_length=4, epochs=3, warmup=1,
    )
    reuse = ("csr_cache_hits", "csr_cache_misses", "ctx_cache_hits", "ctx_cache_misses",
             "noop_updates_skipped")
    return {
        **{name: r.totals.count(name) for name in reuse},
        "csr_cache_hit_rate": round(r.csr_cache_hit_rate, 4),
        "reuse_rate": round(r.reuse_rate, 4),
    }


def _serving_ablation() -> tuple[list[dict], str]:
    """Serving ablation: request coalescing and k-hop invalidation on/off.

    The same traffic mix (closed-loop clients plus update-batch churn) runs
    through the :class:`~repro.serve.InferenceEngine` in three modes; every
    mode stays bitwise-equal to the serial reference (the serving tests
    gate that), so what the ablation tracks nightly is p50/p99 latency,
    throughput, and how much compute the two reuse mechanisms save.
    """
    from repro.bench.report import format_table
    from repro.dataset import load_sx_mathoverflow
    from repro.device import Device, use_device
    from repro.serve import InferenceEngine, ServingHarness, random_update_batches
    from repro.train import STGraphNodeRegressor

    ds = load_sx_mathoverflow(scale=0.02, feature_size=8, max_snapshots=8)
    feats = ds.features[-1]
    modes = (
        ("batched+inval", True, True),
        ("batched", True, False),
        ("unbatched", False, True),
    )
    rows = []
    for mode, batching, invalidation in modes:
        with use_device(Device(name="nightly-serve")):
            model = STGraphNodeRegressor(ds.feature_size, 16)
            engine = InferenceEngine(
                model, ds.build_gpma(), feats,
                batching=batching, invalidation=invalidation,
            )
            updates = random_update_batches(ds.dtdg, 6, seed=13)
            with engine:
                report = ServingHarness(
                    engine, clients=32, requests_per_client=12,
                    kinds=("embedding", "prediction"),
                    updates=updates, update_wait=True,
                    seed=13, collect=False,
                ).run(timeout=300.0)
        row = {"mode": mode, **report.row()}
        rows.append(row)
    return rows, format_table(
        rows, title="Serving ablation (coalescing / k-hop invalidation on vs off)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="refresh EXPERIMENTS.md measured data")
    parser.add_argument("--quick", action="store_true", help="smallest sweep (2 points per axis)")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="also dump raw RunResult rows as JSON (for CI tracking)")
    args = parser.parse_args(argv)

    fs = (8, 32) if args.quick else (8, 16, 32, 64)
    seqs = (5, 10) if args.quick else (5, 10, 20)
    pcts = (1.0, 10.0) if args.quick else (1.0, 2.5, 5.0, 10.0)

    sections: list[tuple[str, str]] = []
    t_start = time.perf_counter()

    print(f"# scales: static={static_scale()} dynamic={dynamic_scale()} epochs={bench_epochs()}\n")

    _, t1 = table1_capabilities()
    print(t1, "\n")
    sections.append(("Table I", t1))

    _, t2 = table2_datasets()
    print(t2, "\n")
    sections.append(("Table II", t2))

    static_results, f5 = fig5_static_time(feature_sizes=fs)
    print(f5, "\n")
    sections.append(("Figure 5", f5))

    static_mem_results, f6 = fig6_static_memory(sequence_lengths=seqs)
    print(f6, "\n")
    sections.append(("Figure 6", f6))

    dyn_time_results, f7 = fig7_dtdg_time(feature_sizes=fs)
    print(f7, "\n")
    sections.append(("Figure 7", f7))

    dyn_mem_results, f8 = fig8_dtdg_memory(percent_changes=pcts)
    print(f8, "\n")
    sections.append(("Figure 8", f8))

    _, f9 = fig9_time_breakup(feature_sizes=fs)
    print(f9, "\n")
    sections.append(("Figure 9", f9))

    _, t3 = table3_summary(
        static_results + static_mem_results, dyn_time_results, dyn_mem_results
    )
    print(t3, "\n")
    sections.append(("Table III", t3))

    serving_rows, serving_table = _serving_ablation()
    print(serving_table, "\n")
    sections.append(("Serving ablation", serving_table))

    elapsed = time.perf_counter() - t_start
    print(f"# total harness time: {elapsed:.1f}s")

    if args.json is not None:
        import json

        rows = [
            r.row()
            for r in (static_results + static_mem_results + dyn_time_results + dyn_mem_results)
        ]
        payload = {
            "elapsed_s": elapsed,
            "rows": rows,
            "micro": _micro_medians(),
            "reuse_counters": _nightly_reuse_counters(),
            "serving_ablation": serving_rows,
        }
        args.json.write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.json}")

    if args.write:
        path = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"
        marker = "<!-- measured-data -->"
        text = path.read_text() if path.exists() else ""
        head = text.split(marker)[0] if marker in text else text
        body = [head.rstrip(), "", marker, ""]
        body.append(f"_Regenerated by `benchmarks/run_all.py` in {elapsed:.1f}s "
                    f"(static scale {static_scale()}, dynamic scale {dynamic_scale()}, "
                    f"{bench_epochs()} epochs)._\n")
        for name, block in sections:
            body.append(f"### {name} (measured)\n\n```\n{block}\n```\n")
        path.write_text("\n".join(body))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
