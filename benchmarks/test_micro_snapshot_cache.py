"""Snapshot-store micro-benchmark: context reuse on vs off.

Every training sequence visits its snapshots twice (forward, then the LIFO
backward walk).  The executor's ``snapshot_key() -> GraphContext`` store
serves the second visit — and every later epoch it still holds — from the
forward pass's builds, so the graph_update share of epoch time (Figure 9's
y-axis) drops while the computed losses stay bitwise equal.
"""

import pytest

from repro.bench import run_dynamic_experiment
from repro.bench.report import format_table
from repro.dataset import load_sx_mathoverflow

_KW = dict(
    scale=0.02, feature_size=8, max_snapshots=12,
    sequence_length=4, epochs=3, warmup=1,
)


def _row(label, r):
    return {
        "csr_cache": label,
        "epoch_s": round(r.per_epoch_seconds, 4),
        "update_frac": round(r.graph_update_fraction, 3),
        "csr_hits": r.totals.count("csr_cache_hits"),
        "csr_misses": r.totals.count("csr_cache_misses"),
        "ctx_hits": r.totals.count("ctx_cache_hits"),
        "noop_skipped": r.totals.count("noop_updates_skipped"),
        "hit_rate": f"{100 * r.csr_cache_hit_rate:.1f}%",
    }


def test_csr_cache_cuts_graph_update_work(benchmark):
    def run_both():
        on = run_dynamic_experiment("gpma", load_sx_mathoverflow, csr_cache=True, **_KW)
        off = run_dynamic_experiment("gpma", load_sx_mathoverflow, csr_cache=False, **_KW)
        return on, off

    on, off = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print()
    print(format_table([_row("on", on), _row("off", off)],
                       title="GPMA snapshot reuse: graph_update share"))
    # The ablation flag is clean: off records zero reuse of either kind.
    on_t, off_t = on.totals, off.totals
    assert off_t.count("csr_cache_hits") == 0 and off_t.count("ctx_cache_hits") == 0
    assert on_t.count("csr_cache_hits") + on_t.count("ctx_cache_hits") > 0
    # Reuse eliminates rebuilds (Algorithm 3 runs), it never adds them.
    assert on_t.count("csr_cache_misses") < off_t.count("csr_cache_misses")
    # Pure optimization: training outcomes are identical.
    assert on.final_loss == pytest.approx(off.final_loss, rel=1e-6)


def _executor_roundtrip(enable_csr_cache):
    from repro.core.executor import TemporalExecutor
    from repro.graph import GPMAGraph

    ds = load_sx_mathoverflow(scale=0.02, feature_size=8, max_snapshots=12)
    graph = GPMAGraph(ds.dtdg, enable_csr_cache=enable_csr_cache)
    executor = TemporalExecutor(graph, ctx_cache_size=ds.num_timestamps)

    def roundtrip():
        for t in range(ds.num_timestamps):
            executor.begin_timestamp(t)
        for t in range(ds.num_timestamps - 1, -1, -1):
            executor.backward_context(t)

    return ds, graph, executor, roundtrip


def test_bench_backward_walk_cached(benchmark):
    """Forward+backward positioning with the context store warm: the backward
    walk is logical repositioning only, zero Algorithm 3 runs."""
    ds, graph, executor, roundtrip = _executor_roundtrip(True)
    benchmark(roundtrip)
    assert graph.csr_cache_misses == ds.num_timestamps  # first pass only
    assert executor.ctx_cache_misses == ds.num_timestamps


def test_bench_backward_walk_uncached(benchmark):
    """The same roundtrip with reuse disabled: every repositioning rebuilds."""
    _, graph, executor, roundtrip = _executor_roundtrip(False)
    benchmark(roundtrip)
    assert graph.csr_cache_hits == 0 and executor.ctx_cache_hits == 0
