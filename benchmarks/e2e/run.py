"""The repository's performance benchmark: one command, three workloads.

    python3 benchmarks/e2e/run.py --seed 0 --json OUT.json
    python3 benchmarks/e2e/run.py --workload serve-churn --seed 3 --seconds 24 --trace 0

A run of a workload is two passes, each in a fresh process with the
numeric libraries pinned to one thread.  Passes of different workloads are
interleaved (A B C A B C) and their samples pooled.  ``--trace 0`` reports
the end-to-end metrics from two untraced passes; ``--trace 1`` makes the
second pass a traced one and reports the per-layer metrics; without
``--trace`` a run is two untraced passes and a traced one, and reports both.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md`` beside this
file for every name.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from typing import Any

import stats
from probe import SITES

#: A child's set-up time starts here, before numpy and the program are imported.
_PROCESS_STARTED = time.perf_counter()

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: One pass may take this long before it is killed and the run fails; a
#: pass takes about 17 s, and two must end within the driver's 180 s.
_PASS_TIMEOUT_S = 80.0

#: Every numeric library the program can load runs on one thread, so that a
#: timing does not depend on how many cores happen to be idle.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "NUMBA_NUM_THREADS": "1",
}

E2E_UNITS = {
    "epoch_s": "s", "setup_s": "s", "peak_device_mb": "MB", "peak_rss_mb": "MB",
    "queries_per_s": "1/s", "query_p99_ms": "ms", "update_visible_p50_ms": "ms", "update_visible_p90_ms": "ms",
}

#: The latency metrics: which samples, which percentile.
PERCENTILES = {
    "query_p99_ms": ("query_s", 99),
    "update_visible_p50_ms": ("update_s", 50),
    "update_visible_p90_ms": ("update_s", 90),
}

#: Per-layer metrics that are not ``<site>.self_s|calls|share``.
LAYER_EXTRA_UNITS = {
    "pma.insert_batch.keys": "count", "pma.delete_batch.keys": "count",
    "graph.csr_cache.hit_rate": "ratio", "graph.noop_updates_skipped": "count",
    "graph.update_batches_applied": "count", "graph.cache_restores": "count",
    "compiler.plan_cache.misses": "count",
    "core.ctx_cache.hit_rate": "ratio", "core.state_stack.peak_bytes": "bytes", "core.engine_fallbacks": "count",
    "bytes.tensor.peak": "bytes", "bytes.gpma.peak": "bytes", "bytes.kernel.peak": "bytes",
    "serve.hit_query_p50_us": "us", "serve.miss_query_p50_ms": "ms", "serve.queue_wait_p50_ms": "ms",
    "serve.forwards_per_update": "ratio", "serve.row_cache.hit_rate": "ratio",
    "serve.rows_invalidated_per_update": "count", "serve.batch_size.mean": "count",
    "bench.trace_overhead_pct": "%", "bench.unattributed_share": "ratio",
}

#: Sites whose spans are on the benchmark's client threads, not the program's.
_CLIENT_SITES = ("serve.query", "serve.enqueue_update")


def layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in reporting order."""
    units: dict[str, str] = {}
    for site in SITES:
        units[f"{site}.self_s"] = "s"
        units[f"{site}.calls"] = "count"
        units[f"{site}.share"] = "ratio"
    units.update(LAYER_EXTRA_UNITS)
    return units


# ---------------------------------------------------------------------------
# Child side: one pass
# ---------------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    result = workloads.run_pass(args.child, args.seed, args.seconds, bool(args.trace), started=_PROCESS_STARTED)
    import numpy
    import scipy
    from repro.device import current_device

    result["env"] = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # which execution tier actually launched; the default engine never
        # resolves the native toolchain, so this is what users run
        "launches_by_tier": dict(current_device().launcher.launches_by_tier),
        "REPRO_NATIVE": os.environ.get("REPRO_NATIVE", "auto"),
    }
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parent side: schedule passes, pool samples, name the metrics
# ---------------------------------------------------------------------------
def spawn_pass(name: str, seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    """Run one pass in a fresh interpreter and return what it printed last."""
    env = {**os.environ, **THREAD_PINS, "PYTHONHASHSEED": "0"}
    command = [
        sys.executable, str(HERE / "run.py"), "--child", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    print(f"[e2e] {name}: {'traced' if traced else 'untraced'} pass", file=sys.stderr, flush=True)
    # run() kills the child and waits for it when the timeout expires
    done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=_PASS_TIMEOUT_S, text=True)
    if done.returncode != 0:
        raise SystemExit(f"[e2e] pass of {name} exited with code {done.returncode}")
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def end_to_end(passes: list[dict[str, Any]]) -> tuple[dict[str, float], dict[str, int], list[str]]:
    """``(values, sample counts, aliased names)`` from the untraced passes of one workload.

    The driver wants every end-to-end metric from every workload.  A metric
    that does not apply to a workload is filled with a unit conversion of
    the workload's own throughput and listed as an alias; it carries no
    information of its own and ``compare.py`` skips it.
    """
    values = {
        "setup_s": stats.median([p["setup_s"] for p in passes]),
        "peak_device_mb": max(p["peak_device_bytes"] for p in passes) / 1e6,
        "peak_rss_mb": max(p["peak_rss_bytes"] for p in passes) / 1e6,
    }
    counts = {"setup_s": len(passes)}
    if "epoch_s" in passes[0]:
        epochs = [x for p in passes for x in p["epoch_s"]]
        timestamps = passes[0]["timestamps"]
        values["epoch_s"] = stats.median(epochs)
        counts["epoch_s"] = len(epochs)
        per_timestamp_ms = 1e3 * values["epoch_s"] / timestamps
        aliases = ["queries_per_s", "query_p99_ms", "update_visible_p50_ms", "update_visible_p90_ms"]
        values["queries_per_s"] = timestamps / values["epoch_s"]  # timestamps trained per second
        for name in aliases[1:]:
            values[name] = per_timestamp_ms
    else:
        pooled = {key: [x for p in passes for x in p[key]] for key in ("query_s", "update_s")}
        values["queries_per_s"] = len(pooled["query_s"]) / sum(p["wall_s"] for p in passes)
        counts["queries_per_s"] = len(pooled["query_s"])
        for name, (key, q) in PERCENTILES.items():
            values[name] = 1e3 * stats.percentile(pooled[key], q)
            counts[name] = len(pooled[key])
        aliases = ["epoch_s"]
        values["epoch_s"] = 1e3 / values["queries_per_s"]  # seconds per 1000 answered queries
    return values, counts, aliases


def _pace(p: dict[str, Any]) -> float:
    """Seconds per unit of work of one pass: what tracing may slow down."""
    return stats.median(p["epoch_s"]) if "epoch_s" in p else p["wall_s"] / len(p["query_s"])


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(untraced: dict[str, Any], traced: dict[str, Any]) -> dict[str, float]:
    """Every per-layer metric of one workload from its traced pass.

    Times and counts are per unit of work (epoch, or update batch when
    serving); a share is self time on the program's threads over the
    measured wall.  ``compiler.plan_build`` happens during set-up, so it
    alone is a total over the whole pass.
    """
    units = traced["ops_attempted"] if traced["unit"] == "epoch" else traced["counters"]["updates_applied"]
    units = max(1, units)
    wall = traced["wall_s"]
    program, clients = traced["sites"]["program"], traced["sites"]["clients"]
    out: dict[str, float] = {}
    for site in SITES:
        if site in _CLIENT_SITES:
            row, share_of = clients[site], wall * traced.get("clients", 1)
        else:
            row, share_of = program[site], wall
        if site == "compiler.plan_build":
            setup = traced["setup_sites"]["program"][site]
            row = {key: row[key] + setup[key] for key in row}
            per, share_of = 1, wall + traced["setup_s"]
        else:
            per = units
        out[f"{site}.self_s"] = row["self_s"] / per
        out[f"{site}.calls"] = row["calls"] / per
        out[f"{site}.share"] = row["self_s"] / share_of
    c = traced["counters"]
    peaks = traced["peak_bytes_by_prefix"]
    out.update({
        "pma.insert_batch.keys": program["pma.insert_batch"]["weight"] / units,
        "pma.delete_batch.keys": program["pma.delete_batch"]["weight"] / units,
        "graph.csr_cache.hit_rate": _ratio(c["csr_cache_hits"], c["csr_cache_misses"]),
        "graph.noop_updates_skipped": c["noop_updates_skipped"] / units,
        "graph.update_batches_applied": c["update_batches_applied"] / units,
        "graph.cache_restores": c["cache_restores"] / units,
        "compiler.plan_cache.misses": c["plan_cache_misses"],
        "core.ctx_cache.hit_rate": _ratio(c["ctx_cache_hits"], c["ctx_cache_misses"]),
        "core.state_stack.peak_bytes": c["state_stack_peak_bytes"],
        "core.engine_fallbacks": c["engine_fallbacks"],
        "bytes.tensor.peak": peaks.get("tensor", 0),
        "bytes.gpma.peak": peaks.get("gpma", 0),
        "bytes.kernel.peak": peaks.get("kernel", 0),
        "bench.trace_overhead_pct": 100.0 * (_pace(traced) / _pace(untraced) - 1.0),
        "bench.unattributed_share": 1.0 - sum(
            row["self_s"] for site, row in program.items() if site != "train.epoch"
        ) / wall,
    })
    serving = {name: 0.0 for name in LAYER_EXTRA_UNITS if name.startswith("serve.")}
    if "query_s" in traced:
        hits = [s for s, hit in zip(traced["query_s"], traced["query_hit"]) if hit]
        misses = [s for s, hit in zip(traced["query_s"], traced["query_hit"]) if not hit]
        serving = {
            "serve.hit_query_p50_us": 1e6 * stats.median(hits) if hits else 0.0,
            "serve.miss_query_p50_ms": 1e3 * stats.median(misses) if misses else 0.0,
            "serve.queue_wait_p50_ms": 1e3 * stats.median(traced["queue_wait_s"]) if traced["queue_wait_s"] else 0.0,
            "serve.forwards_per_update": c["forwards"] / units,
            "serve.row_cache.hit_rate": c["row_cache_hits"] / max(1, c["queries_served"]),
            "serve.rows_invalidated_per_update": c["rows_invalidated"] / units,
            "serve.batch_size.mean": c["queries_served"] / max(1, c["batches_served"]),
        }
    out.update(serving)
    return out


def verdict(passes: list[dict[str, Any]]) -> tuple[int, int, dict[str, bool]]:
    """``(attempted, failed, checks)`` over every pass of one workload.

    A failed check is a failed operation: it makes the run incorrect.
    """
    checks: dict[str, bool] = {}
    for p in passes:
        for name, ok in p["checks"].items():
            checks[name] = checks.get(name, True) and bool(ok)
    checks["inputs_repeat"] = len({p["input_sha256"] for p in passes}) == 1
    if "losses" in passes[0]:
        checks["losses_bitwise_equal_across_passes"] = all(p["losses"] == passes[0]["losses"] for p in passes)
    attempted = sum(p["ops_attempted"] for p in passes)
    failed = sum(p["ops_failed"] for p in passes) + sum(not ok for ok in checks.values())
    return attempted, failed, checks


def git_rev() -> str:
    """HEAD of the checkout, read from ``.git`` by hand: a driver's checkout has none."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(names: list[str], seed: int, seconds: float, trace: int | None) -> dict[str, Any]:
    """Run the named workloads and return the full report."""
    schedule = {0: [False, False], 1: [False, True], None: [False, False, True]}[trace]
    passes: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    for traced in schedule:
        for name in names:
            passes[name].append(spawn_pass(name, seed, seconds, traced))

    report: dict[str, Any] = {
        "seed": seed, "seconds": seconds, "trace": trace, "workloads": {},
        "env": {
            "git_rev": git_rev(), "nproc": os.cpu_count(), "python": platform.python_version(),
            "thread_pins": THREAD_PINS, **passes[names[0]][0]["env"],
        },
    }
    for name in names:
        untraced = [p for p in passes[name] if not p["traced"]]
        traced = [p for p in passes[name] if p["traced"]]
        attempted, failed, checks = verdict(passes[name])
        entry: dict[str, Any] = {
            "input_sha256": passes[name][0]["input_sha256"],
            "ops_attempted": attempted, "ops_failed": failed, "checks": checks,
            "probe_missing_sites": sorted({s for p in traced for s in p["probe_missing_sites"]}),
            "passes": passes[name],
        }
        if trace != 1:
            values, counts, aliases = end_to_end(untraced)
            entry["end_to_end"] = {
                metric: {"value": values[metric], "unit": unit, "n": counts.get(metric), "alias": metric in aliases}
                for metric, unit in E2E_UNITS.items()
            }
        if traced:
            values = per_layer(untraced[0], traced[0])
            entry["per_layer"] = {
                metric: {"value": values[metric], "unit": unit} for metric, unit in layer_units().items()
            }
        report["workloads"][name] = entry
    return report


def print_report(report: dict[str, Any]) -> None:
    for name, entry in report["workloads"].items():
        print(f"\n== {name}  (ops {entry['ops_attempted']}, failed {entry['ops_failed']}, "
              f"inputs {entry['input_sha256'][:12]})")
        for check, ok in entry["checks"].items():
            print(f"   check {check:<40} {'ok' if ok else 'FAILED'}")
        for site in entry["probe_missing_sites"]:
            print(f"   probe site {site} no longer resolves; it recorded nothing")
        for kind in ("end_to_end", "per_layer"):
            for metric, cell in entry.get(kind, {}).items():
                note = "  (alias of this workload's throughput)" if cell.get("alias") else ""
                note += f"  n={cell['n']}" if cell.get("n") else ""
                if metric in PERCENTILES and not cell["alias"]:
                    supported = stats.highest_supported_percentile(cell["n"]) or 0
                    note += "" if supported >= PERCENTILES[metric][1] else "  (fewer than 10 samples beyond it)"
                print(f"   {metric:<36} {cell['value']:>16.6g} {cell['unit']}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable); default: all three")
    parser.add_argument("--seed", type=int, default=0, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=24.0, help="about how long one run of a workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only; default: both")
    parser.add_argument("--json", type=pathlib.Path, help="also write the full report here")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    import workloads  # numpy only; the program itself loads in the children

    names = args.workload or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown}; choose from {list(workloads.WORKLOADS)}")
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"[e2e] no program to measure: {ROOT / 'src' / 'repro'} is missing")
    # Byte-compile once, so that the first pass does not pay for it in setup_s.
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)

    report = run(names, args.seed, args.seconds, args.trace)
    print_report(report)
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")

    entries = report["workloads"]
    metrics: dict[str, dict[str, Any]] = {}
    for name, entry in entries.items():
        for kind in ("end_to_end", "per_layer"):
            for metric, cell in entry.get(kind, {}).items():
                key = metric if len(entries) == 1 else f"{name}:{metric}"
                metrics[key] = {"value": cell["value"], "unit": cell["unit"]}
    failed = sum(e["ops_failed"] for e in entries.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(e["ops_attempted"] for e in entries.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
