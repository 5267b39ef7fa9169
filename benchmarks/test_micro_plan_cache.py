"""Plan-cache micro-benchmark: cold-compile vs warm-cache model construction.

The compile-once/run-every-timestamp split means layer construction is a
trace + cache lookup when the plan is warm; the full lower → autodiff →
passes → codegen pipeline only runs on a cold cache. This file measures
that gap across the whole nn layer zoo.
"""

import time

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


def test_verifier_overhead_under_5_percent():
    """Build-time verification must cost < 5% of a cold TGCN compile.

    Every cold build runs the whole verifier.  Samples are interleaved (on,
    off, on, off, …) so clock drift and cache warmth hit both sides equally;
    the per-side minimum rejects scheduler noise, and a 50 µs absolute floor
    keeps jitter from failing a build on a compile that takes under a
    millisecond.
    """
    from repro.compiler import set_verification

    def cold_compile() -> float:
        plan_cache().clear()
        t0 = time.perf_counter()
        _construct(lambda: TGCN(8, 8))
        return time.perf_counter() - t0

    cold_compile()  # warm imports
    on_samples, off_samples = [], []
    prev = set_verification(True)
    try:
        for _ in range(9):
            set_verification(True)
            on_samples.append(cold_compile())
            set_verification(False)
            off_samples.append(cold_compile())
    finally:
        set_verification(prev)
    on, off = min(on_samples), min(off_samples)
    print(f"\ncold compile: verifier on {on * 1e3:.2f} ms, off {off * 1e3:.2f} ms "
          f"({(on / off - 1) * 100:+.2f}%)")
    assert on <= off * 1.05 + 50e-6, f"verifier adds {(on / off - 1) * 100:.1f}% (> 5%) to plan builds"
