"""Algorithm 3 micro-benchmarks: literal transcription vs vectorized.

``test_snapshot_build_is_linear_gate`` times a whole snapshot build against
the frozen comparison-sort build in ``tests/_snapshot_reference.py`` and
against the sum of its own parts; run from the repository root with
``python -m pytest`` so the ``tests`` package is importable.
"""

import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.device import current_device
from repro.graph import reverse_gpma_literal, reverse_gpma_vectorized
from repro.graph.labels import decode_edges
from repro.graph.snapshot_builder import build_snapshot_arrays
from repro.pma import PackedMemoryArray
from tests._snapshot_reference import reference_build_snapshot_arrays


@pytest.fixture(scope="module")
def gapped_csr():
    rng = np.random.default_rng(3)
    n = 2000
    e = 20_000
    src = np.sort(rng.integers(0, n, e))
    dst = rng.integers(0, n, e)
    row = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=row[1:])
    eids = np.arange(e, dtype=np.int64)
    in_deg = np.bincount(dst, minlength=n)
    return row, dst.astype(np.int64), eids, in_deg, n


def test_reverse_vectorized(benchmark, gapped_csr):
    row, col, eids, in_deg, n = gapped_csr
    r_row, r_col, r_eid = benchmark(reverse_gpma_vectorized, row, col, eids, n)
    assert r_row[-1] == len(col)


def test_ablation_reverse_literal(benchmark, gapped_csr):
    """The as-written Algorithm 3 with a Python-level parallel-for; shows
    what the vectorized lowering buys on the simulated device."""
    row, col, eids, in_deg, n = gapped_csr
    r_row, r_col, r_eid = benchmark.pedantic(
        reverse_gpma_literal, args=(row, col, eids, in_deg), rounds=2, iterations=1
    )
    ref = reverse_gpma_vectorized(row, col, eids, n)
    assert np.array_equal(r_row, ref[0])


def _best_seconds(fn, repeats: int = 7, calls: int = 20) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / calls


def test_snapshot_build_is_linear_gate():
    """Gate: a snapshot build is one compaction plus O(E + N) work.

    A PMA at the ``dtdg-update-bound`` shape (~100k ``src*N+dst`` keys over
    24k vertices, 262 144 slots, density ~0.4).  The build must be >= 2x
    faster than the frozen build it replaced (a second, gapped pass over
    every slot and a stable argsort of the destinations), and cost at most
    1.5x its own parts run bare: ``export_items``, the key decode, two
    bincounts, two degree argsorts (N-length) and SciPy's CSR -> CSC
    transpose.  All sides run in this process on the same PMA, so runner
    speed cancels out.
    """
    rng = np.random.default_rng(0)
    n = 24_000
    keys = np.unique(rng.integers(0, n, 130_000) * n + rng.integers(0, n, 130_000))[:100_000]
    pma = PackedMemoryArray(capacity=2 * len(keys))
    pma.insert_batch(keys, keys)
    assert 0.35 < len(keys) / pma.capacity < 0.45
    alloc = current_device().alloc

    def parts():
        held, _ = pma.export_items()
        src, dst = decode_edges(held, n)
        out_deg, in_deg = np.bincount(src, minlength=n), np.bincount(dst, minlength=n)
        np.argsort(-out_deg, kind="stable")
        np.argsort(-in_deg, kind="stable")
        row = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(out_deg, out=row[1:])
        return csr_matrix((np.arange(len(held)), dst, row), shape=(n, n)).tocsc()

    new = build_snapshot_arrays(pma, n, True, alloc)
    ref = reference_build_snapshot_arrays(pma, n, True, alloc)
    assert np.array_equal(new.fwd.col_indices, ref.fwd.col_indices)
    assert np.array_equal(new.fwd.eids, parts().data)
    t_new = _best_seconds(lambda: build_snapshot_arrays(pma, n, True, alloc))
    t_ref = _best_seconds(lambda: reference_build_snapshot_arrays(pma, n, True, alloc))
    t_parts = _best_seconds(parts)
    assert t_ref >= 2.0 * t_new, f"build is only {t_ref / t_new:.2f}x the frozen reference"
    assert t_new <= 1.5 * t_parts, f"build is {t_new / t_parts:.2f}x the sum of its parts"
