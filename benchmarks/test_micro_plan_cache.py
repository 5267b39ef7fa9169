"""Plan-cache micro-benchmark: cold-compile vs warm-cache model construction.

The compile-once/run-every-timestamp split means layer construction is a
trace + cache lookup when the plan is warm; the full lower → autodiff →
passes → codegen pipeline only runs on a cold cache. This file measures
that gap across the whole nn layer zoo.
"""

import time
import timeit

from benchmarks._interleave import interleaved_ratio
from repro.bench.report import format_table
from repro.compiler import plan_cache
from repro.nn import (
    A3TGCN,
    DCRNN,
    ChebConv,
    EvolveGCNO,
    GATConv,
    GConvGRU,
    GConvLSTM,
    GCNConv,
    RGCNConv,
    SAGEConv,
    TGCN,
)
from repro.tensor import init

ZOO = [
    ("gcn", lambda: GCNConv(8, 8)),
    ("gat", lambda: GATConv(8, 8, heads=2)),
    ("sage", lambda: SAGEConv(8, 8)),
    ("cheb", lambda: ChebConv(8, 8, k=3)),
    ("rgcn", lambda: RGCNConv(8, 8, num_relations=3)),
    ("tgcn", lambda: TGCN(8, 8)),
    ("gconv_gru", lambda: GConvGRU(8, 8)),
    ("gconv_lstm", lambda: GConvLSTM(8, 8)),
    ("a3tgcn", lambda: A3TGCN(8, 8, periods=3)),
    ("evolve_gcn", lambda: EvolveGCNO(8, 8)),
    ("dcrnn", lambda: DCRNN(8, 8, k=2)),
]


def _construct(factory):
    init.set_seed(0)
    return factory()


def test_cold_vs_warm_construction_across_zoo():
    """Second construction of every layer must build zero new plans, and the
    zoo-wide warm construction time must beat the cold one."""
    rows = []
    for name, factory in ZOO:
        plan_cache().clear()
        t0 = time.perf_counter()
        _construct(factory)
        cold = time.perf_counter() - t0
        misses, size = plan_cache().misses, len(plan_cache())
        t0 = time.perf_counter()
        _construct(factory)
        warm = time.perf_counter() - t0
        assert plan_cache().misses == misses, name  # warm build compiles nothing
        assert len(plan_cache()) == size, name
        rows.append(
            {
                "layer": name,
                "plans": size,
                "cold_ms": round(cold * 1e3, 3),
                "warm_ms": round(warm * 1e3, 3),
                "speedup": round(cold / warm, 1) if warm > 0 else float("inf"),
            }
        )
    print()
    print(format_table(rows, title="Model construction: cold plan cache vs warm"))
    total_cold = sum(r["cold_ms"] for r in rows)
    total_warm = sum(r["warm_ms"] for r in rows)
    assert total_warm < total_cold


def test_bench_cold_compile_tgcn(benchmark):
    """Full pipeline per construction: the cache is cleared every round."""

    def build():
        plan_cache().clear()
        _construct(lambda: TGCN(8, 8))

    benchmark(build)


def test_bench_warm_cache_tgcn(benchmark):
    """Construction against a warm cache: trace + lookup only."""
    _construct(lambda: TGCN(8, 8))
    benchmark(lambda: _construct(lambda: TGCN(8, 8)))


def test_verifier_overhead_under_5_percent(monkeypatch):
    """Build-time verification must cost < 5% of a cold TGCN compile.

    Every cold build runs the whole verifier.  The "off" side replaces
    ``run_verifier`` in the plan builder, inside this test only, with one
    that returns an empty report; both sides set their verifier before each
    build, so they pay the same for it.  The sides run in interleaved rounds
    (``benchmarks/_interleave.py``), so clock drift and cache warmth hit both
    equally, and the gate reads the median per-round ratio.  A 50 µs
    absolute allowance keeps jitter from failing a build on a compile that
    takes under a millisecond.
    """
    from repro.compiler import plan as plan_module
    from repro.compiler.diagnostics import LintReport

    def cold_compile_with(verifier):
        def build():
            monkeypatch.setattr(plan_module, "run_verifier", verifier)
            plan_cache().clear()
            _construct(lambda: TGCN(8, 8))
        return build

    on = cold_compile_with(plan_module.run_verifier)
    off = cold_compile_with(lambda *args, **kwargs: LintReport())
    on()  # warm imports
    off_seconds = min(timeit.repeat(off, number=1, repeat=5))
    ratio = interleaved_ratio(on, off, rounds=31, calls=5)
    allowed = 1.05 + 50e-6 / off_seconds
    print(f"\ncold compile: verifier on / off = {ratio:.4f} ({(ratio - 1) * 100:+.2f}%), "
          f"off {off_seconds * 1e3:.2f} ms, allowed {allowed:.4f}")
    assert ratio <= allowed, f"verifier adds {(ratio - 1) * 100:.1f}% (> 5% + 50 µs) to plan builds"
