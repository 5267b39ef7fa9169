"""Packed Memory Array unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pma import PackedMemoryArray, SPACE_KEY
from repro.pma.segment import (
    MIN_CAPACITY,
    DensityBounds,
    segment_size_for_capacity,
    window_bounds,
)


# ---------------------------------------------------------------------------
# Geometry / thresholds
# ---------------------------------------------------------------------------
def test_segment_size_power_of_two():
    for cap in (64, 256, 1024, 1 << 20):
        s = segment_size_for_capacity(cap)
        assert s >= 8 and (s & (s - 1)) == 0
        assert cap % s == 0


def test_segment_size_grows_with_capacity():
    assert segment_size_for_capacity(1 << 22) >= segment_size_for_capacity(64)


def test_segment_size_rejects_tiny():
    with pytest.raises(ValueError):
        segment_size_for_capacity(16)


def test_density_bounds_monotone():
    b = DensityBounds(num_segments=16)
    uppers = [b.upper(d) for d in range(b.height + 1)]
    lowers = [b.lower(d) for d in range(b.height + 1)]
    assert all(x >= y for x, y in zip(uppers, uppers[1:]))  # decreasing to root
    assert all(x <= y for x, y in zip(lowers, lowers[1:]))  # increasing to root
    assert uppers[0] == pytest.approx(0.92)
    assert uppers[-1] == pytest.approx(0.70)
    assert all(lo < up for lo, up in zip(lowers, uppers))


def test_window_bounds_aligned():
    assert window_bounds(5, 1, 8) == (4, 6)
    assert window_bounds(5, 2, 8) == (4, 8)
    assert window_bounds(5, 3, 8) == (0, 8)
    assert window_bounds(0, 1, 8) == (0, 2)


# ---------------------------------------------------------------------------
# Basic operations
# ---------------------------------------------------------------------------
def test_empty_pma():
    pma = PackedMemoryArray()
    assert len(pma) == 0
    assert not pma.contains(5)
    pma.check_invariants()


def test_insert_and_get():
    pma = PackedMemoryArray()
    assert pma.insert_batch(np.array([10, 5, 30])) == 3
    assert len(pma) == 3
    assert pma.contains(5) and pma.contains(10) and pma.contains(30)
    assert not pma.contains(7)
    pma.check_invariants()


def test_insert_sorted_export():
    pma = PackedMemoryArray()
    keys = np.array([9, 1, 7, 3, 5])
    pma.insert_batch(keys)
    assert pma.export_items().tolist() == [1, 3, 5, 7, 9]


def test_present_keys_are_skipped():
    pma = PackedMemoryArray()
    pma.insert_batch(np.array([1, 2]))
    keys = pma.keys.copy()
    assert pma.insert_batch(np.array([2, 1])) == 0
    np.testing.assert_array_equal(pma.keys, keys)  # no structural change
    assert pma.insert_batch(np.array([2, 3])) == 1  # only key 3 is new
    assert len(pma) == 3


def test_intra_batch_duplicates_collapse():
    pma = PackedMemoryArray()
    assert pma.insert_batch(np.array([4, 4, 4])) == 1
    assert len(pma) == 1
    assert pma.contains(4)
    pma.check_invariants()


def test_space_key_rejected():
    pma = PackedMemoryArray()
    with pytest.raises(ValueError, match="SPACE"):
        pma.insert_batch(np.array([-1]))


def test_empty_batch_noop():
    pma = PackedMemoryArray()
    assert pma.insert_batch(np.array([], dtype=np.int64)) == 0
    assert pma.delete_batch(np.array([], dtype=np.int64)) == 0


def test_delete_existing_and_missing():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(10))
    removed = pma.delete_batch(np.array([3, 4, 100]))
    assert removed == 2
    assert len(pma) == 8
    assert not pma.contains(3)
    pma.check_invariants()


def test_delete_everything():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(50))
    pma.delete_batch(np.arange(50))
    assert len(pma) == 0
    pma.check_invariants()
    assert pma.export_items().size == 0


def test_contains_batch(rng):
    pma = PackedMemoryArray()
    keys = np.array([2, 4, 6, 8])
    pma.insert_batch(keys)
    res = pma.contains_batch(np.array([1, 2, 3, 4, 9]))
    assert res.tolist() == [False, True, False, True, False]


def test_contains_batch_empty_pma():
    pma = PackedMemoryArray()
    assert not pma.contains_batch(np.array([1, 2])).any()


# ---------------------------------------------------------------------------
# Growth / shrink / gaps
# ---------------------------------------------------------------------------
def test_capacity_grows_under_load():
    pma = PackedMemoryArray(capacity=64)
    pma.insert_batch(np.arange(1000))
    assert pma.capacity > 64
    assert pma.density <= 0.71
    pma.check_invariants()


def test_capacity_shrinks_after_drain():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(5000))
    big = pma.capacity
    pma.delete_batch(np.arange(4990))
    assert pma.capacity < big
    assert len(pma) == 10
    pma.check_invariants()


def test_capacity_never_below_minimum():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(5))
    pma.delete_batch(np.arange(5))
    assert pma.capacity >= MIN_CAPACITY


def test_gapped_arrays_have_spaces():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(20))
    keys = pma.gapped_arrays()
    assert keys is pma.keys  # the storage itself, no copy
    assert (keys == SPACE_KEY).sum() > 0  # the defining PMA property
    valid = keys != SPACE_KEY
    assert np.array_equal(keys[valid], np.arange(20))


def test_monotone_ascending_inserts():
    pma = PackedMemoryArray()
    for chunk in np.array_split(np.arange(2000), 40):
        pma.insert_batch(chunk)
        pma.check_invariants()
    assert len(pma) == 2000


def test_monotone_descending_inserts():
    pma = PackedMemoryArray()
    for chunk in np.array_split(np.arange(2000)[::-1].copy(), 40):
        pma.insert_batch(chunk)
        pma.check_invariants()
    ek = pma.export_items()
    assert np.array_equal(ek, np.arange(2000))


def test_interleaved_inserts_land_between():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(0, 100, 2))
    pma.insert_batch(np.arange(1, 100, 2))
    ek = pma.export_items()
    assert np.array_equal(ek, np.arange(100))
    pma.check_invariants()


def test_segment_counts_sum_to_items():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(777))
    assert int(pma.segment_counts().sum()) == 777


def test_reinsert_after_delete():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(100))
    pma.delete_batch(np.arange(0, 100, 2))
    assert pma.insert_batch(np.arange(0, 100, 2)) == 50
    assert len(pma) == 100
    assert pma.contains_batch(np.arange(100)).all()
    pma.check_invariants()


def test_pma_memory_is_tracked(fresh_device):
    before = fresh_device.tracker.current_bytes
    pma = PackedMemoryArray(capacity=1024)
    assert fresh_device.tracker.current_bytes > before
    tags = fresh_device.tracker.live_by_tag()
    assert any(t.startswith("pma.") for t in tags)
    del pma
