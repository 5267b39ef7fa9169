"""Micro-benchmarks: PMA batch updates vs full CSR rebuild (ablation).

The design question GPMAGraph answers: is applying a small update batch to
gapped storage cheaper than rebuilding the snapshot's CSR from scratch?

The two ``*_gate`` tests time the segmented batch pass against the frozen
per-segment loop in ``tests/_pma_reference.py`` on a 100k-edge array at the
repo benchmark's two batch sizes; run from the repository root with
``python -m pytest`` so the ``tests`` package is importable.  The reference
still moves a payload array beside its keys, and the PMA is a key set, so
part of either margin is work the key set no longer does.
"""

import time

import numpy as np
import pytest

from repro.graph.csr import build_csr
from repro.pma import PackedMemoryArray
from tests._pma_reference import ReferencePMA

N_EDGES = 50_000
BATCH = 500  # ~1% update, the paper's "<10% change" regime


@pytest.fixture(scope="module")
def edge_keys():
    rng = np.random.default_rng(0)
    return np.unique(rng.integers(0, 10**9, N_EDGES * 2))[:N_EDGES]


def test_pma_batch_insert(benchmark, edge_keys, rng):
    pma = PackedMemoryArray()
    pma.insert_batch(edge_keys)
    fresh = np.unique(rng.integers(0, 10**9, BATCH * 2))[:BATCH]

    def op():
        pma.insert_batch(fresh)
        pma.delete_batch(fresh)

    benchmark(op)
    pma.check_invariants()


def test_pma_batch_delete_reinsert(benchmark, edge_keys):
    pma = PackedMemoryArray()
    pma.insert_batch(edge_keys)
    doomed = edge_keys[:BATCH]

    def op():
        pma.delete_batch(doomed)
        pma.insert_batch(doomed)

    benchmark(op)
    assert len(pma) == N_EDGES


def test_ablation_full_csr_rebuild(benchmark, edge_keys):
    """The alternative GPMAGraph avoids: rebuild everything per timestamp."""
    n = 1 << 15
    src = (edge_keys % n).astype(np.int64)
    dst = ((edge_keys // n) % n).astype(np.int64)

    def op():
        return build_csr(src, dst, np.arange(len(src), dtype=np.int64), n)

    benchmark(op)


def test_pma_point_lookup(benchmark, edge_keys):
    pma = PackedMemoryArray()
    pma.insert_batch(edge_keys)
    key = int(edge_keys[N_EDGES // 2])
    benchmark(lambda: pma.contains(key))


def test_pma_export_items(benchmark, edge_keys):
    pma = PackedMemoryArray()
    pma.insert_batch(edge_keys)
    benchmark(pma.export_items)


def _paired_medians(n_delete, n_insert, rounds=15):
    """Median seconds of ``(delete_batch, insert_batch)`` per implementation.

    A 100k-item array of ``src*N+dst`` keys at GPMAGraph's initial sizing;
    each round deletes ``n_delete`` live keys, then inserts them back plus
    ``n_insert - n_delete`` fresh ones, on both implementations in
    alternating order, and removes the fresh keys again off the clock.
    """
    rng = np.random.default_rng(0)
    n = 24_000
    live = np.unique(rng.integers(0, n, 130_000) * n + rng.integers(0, n, 130_000))[:100_000]
    pmas = {"new": PackedMemoryArray(2 * len(live)), "ref": ReferencePMA(2 * len(live))}
    # The oracle still moves a payload array; it is handed the keys as their own payload.
    inserts = {"new": pmas["new"].insert_batch, "ref": lambda keys: pmas["ref"].insert_batch(keys, keys)}
    times = {(name, op): [] for name in pmas for op in ("delete", "insert")}
    for insert in inserts.values():
        insert(live)
    for r in range(rounds + 1):  # round 0 warms both
        doomed = rng.choice(live, n_delete, replace=False)
        fresh = np.setdiff1d(rng.integers(0, n, n_insert - n_delete) * n + rng.integers(0, n, n_insert - n_delete), live)
        batch = np.concatenate([doomed, fresh])
        for name in ("new", "ref") if r % 2 else ("ref", "new"):
            pma = pmas[name]
            t0 = time.perf_counter()
            pma.delete_batch(doomed)
            t1 = time.perf_counter()
            inserts[name](batch)
            t2 = time.perf_counter()
            pma.delete_batch(fresh)
            if r:
                times[name, "delete"].append(t1 - t0)
                times[name, "insert"].append(t2 - t1)
    np.testing.assert_array_equal(pmas["new"].keys, pmas["ref"].keys)
    return {key: float(np.median(ts)) for key, ts in times.items()}


def test_segmented_delete_speedup_gate():
    """1.8k keys over ~1.8k segments (the ``dtdg-update-bound`` batch): >=5x on delete."""
    t = _paired_medians(1800, 1800)
    delete_x = t["ref", "delete"] / t["new", "delete"]
    insert_x = t["ref", "insert"] / t["new", "insert"]
    print(f"\n1.8k-key batch: delete {t['new', 'delete'] * 1e3:.2f} ms ({delete_x:.1f}x), "
          f"insert {t['new', 'insert'] * 1e3:.2f} ms ({insert_x:.1f}x) vs reference")
    assert delete_x >= 5.0, f"segmented delete_batch {delete_x:.2f}x vs reference; expected >= 5x"
    assert insert_x >= 1.0, f"segmented insert_batch {insert_x:.2f}x vs reference; expected no slower"


def test_small_batch_not_slower_gate():
    """16 deletes + 32 inserts (the ``serve-churn`` batch): the one path must not lose here."""
    t = _paired_medians(16, 32, rounds=41)
    new, ref = (t[name, "delete"] + t[name, "insert"] for name in ("new", "ref"))
    print(f"\n48-key batch: {new * 1e3:.3f} ms vs reference {ref * 1e3:.3f} ms ({ref / new:.1f}x)")
    assert new <= ref, f"segmented path {new * 1e3:.3f} ms slower than reference {ref * 1e3:.3f} ms at 48 keys"
