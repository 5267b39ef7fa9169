"""Gate: serving's ingest patches its live build instead of rebuilding it,
and never pays more than the rebuild.

At ``serve-churn``'s shape (24 000 vertices, ~104 000 edges, a batch of 32
adds and 16 deletes), ``patch_snapshot`` of the previous build must cost at
most 0.75x ``build_snapshot_arrays`` over the new snapshot's sorted keys,
the full build it replaces (serving has those keys for free: the DTDG's
append computes them).  With a batch of 3 200 adds and 1 600 deletes on the
same graph the patch would cost several full builds, so the live graph
builds in full: its ``snapshot()`` must cost at most 1.25x the full build
(it is the same build plus the check that chose it, so the margin is the
timer's round-to-round spread, not a cost).  Both sides run in this
process in interleaved rounds (``benchmarks/_interleave.py``), so box drift
cancels out.
"""

import numpy as np

from benchmarks._interleave import interleaved_ratio
from repro.graph.dtdg import DTDG
from repro.graph.snapshot_builder import build_snapshot_arrays, patch_snapshot
from repro.serve import random_update_batches
from repro.serve.engine import _LiveGraph

N, EDGES = 24_000, 104_000
BOUND = 0.75
LARGE_BOUND = 1.25


def _one_update(num_adds, num_deletes):
    rng = np.random.default_rng(0)
    keys = np.unique(rng.integers(0, N, 2 * EDGES) * N + rng.integers(0, N, 2 * EDGES))
    keys = rng.permutation(keys)[:EDGES]
    dtdg = DTDG([(keys // N, keys % N)], N)
    (batch,) = random_update_batches(dtdg, 1, num_adds=num_adds, num_deletes=num_deletes, seed=1)
    dtdg.append_update(batch)
    update = dtdg.updates[1]
    assert (len(update.add_src), len(update.del_src)) == (num_adds, num_deletes)
    return dtdg, update


def test_live_patch_beats_a_full_build_gate(fresh_device):
    dtdg, update = _one_update(32, 16)
    new_keys = dtdg.snapshot_keys(1)
    alloc = fresh_device.alloc
    prev = build_snapshot_arrays(dtdg.snapshot_keys(0), N, False, alloc)
    ratio = interleaved_ratio(
        lambda: patch_snapshot(prev, update, N, False, alloc),
        lambda: build_snapshot_arrays(new_keys, N, False, alloc),
        rounds=15,
        calls=5,
    )
    print(f"patch / full build: {ratio:.3f}x")
    assert ratio <= BOUND, f"patch_snapshot costs {ratio:.3f}x a full build (bound {BOUND}x)"


def test_a_large_batch_costs_the_live_graph_no_more_than_a_full_build_gate(fresh_device):
    dtdg, update = _one_update(3_200, 1_600)
    new_keys = dtdg.snapshot_keys(1)
    alloc = fresh_device.alloc
    prev = build_snapshot_arrays(dtdg.snapshot_keys(0), N, False, alloc)
    live = _LiveGraph(dtdg, False)  # positioned at the newest timestamp, 1

    def ingest():
        live._build, live._build_time = prev, 0  # the build one update behind
        return live.snapshot()

    ratio = interleaved_ratio(ingest, lambda: build_snapshot_arrays(new_keys, N, False, alloc), rounds=15, calls=5)
    print(f"live snapshot after {update.num_changes} changes / full build: {ratio:.3f}x")
    assert ratio <= LARGE_BOUND, f"the live graph costs {ratio:.3f}x a full build (bound {LARGE_BOUND}x)"
