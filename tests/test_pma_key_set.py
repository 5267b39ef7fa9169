"""The PMA is a gapped, sorted key set, and its bytes say so.

* a PMA tracks exactly its key array and its two per-segment arrays (the
  counts and the routing minima) under ``pma.*`` tags, before and after a
  resize, and never a payload array;
* an Algorithm 2 saved state is the time plus a copy of the keys and the
  segment counts, nothing else, and the device allocator does not track it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.graph import DTDG
from repro.graph.snapshot_builder import UpdateCursor
from repro.pma import PackedMemoryArray


def test_pma_tracks_keys_and_two_segment_arrays(fresh_device):
    tracker = fresh_device.tracker
    pma = PackedMemoryArray(capacity=4096)
    for batch in (np.arange(0, 6000, 3), np.arange(1, 30000, 3)):  # the second one grows it
        capacity = pma.capacity
        pma.insert_batch(batch)
        live = {tag: nbytes for tag, nbytes in tracker.bytes_by_tag().items() if tag.startswith("pma.")}
        assert live == {
            "pma.keys": pma.capacity * 8,
            "pma.counts": pma.num_segments * 8,
            "pma.segmin": pma.num_segments * 8,
        }
        assert sum(live.values()) == pma.capacity * 8 + 2 * pma.num_segments * 8
    assert pma.capacity > capacity
    assert "pma.values" not in tracker.peak_bytes_by_tag()


def test_a_saved_cursor_state_is_the_keys_and_the_segment_counts(fresh_device):
    rng = np.random.default_rng(3)
    n = 40
    snaps = [(rng.integers(0, n, 60 + 40 * t), rng.integers(0, n, 60 + 40 * t)) for t in range(6)]
    cursor = UpdateCursor(DTDG(snaps, n))
    cursor.advance(3)
    before = fresh_device.tracker.current_bytes
    cursor.cache_state()
    assert fresh_device.tracker.current_bytes == before  # host copies, untracked
    saved = cursor._cache
    assert [f.name for f in dataclasses.fields(saved)] == ["time", "pma"]
    keys, counts = saved.pma
    np.testing.assert_array_equal(keys, cursor.pma.keys)
    np.testing.assert_array_equal(counts, cursor.pma.segment_counts())
    assert keys.nbytes + counts.nbytes == cursor.pma.capacity * 8 + cursor.pma.num_segments * 8
    assert not np.shares_memory(keys, cursor.pma.keys)

    held = cursor.pma.export_items()
    cursor.advance(5)
    restores = cursor.cache_restores
    cursor.advance(3)
    assert cursor.cache_restores == restores + 1
    np.testing.assert_array_equal(cursor.pma.export_items(), held)
    np.testing.assert_array_equal(cursor.pma.keys, keys)
    assert cursor.pma.n_items == len(held)
    cursor.pma.check_invariants()
