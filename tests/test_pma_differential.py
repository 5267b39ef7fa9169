"""Layout-identity differential: segmented PMA batch pass vs the frozen oracle.

Every operation sequence is driven through :class:`PackedMemoryArray` and
``tests/_pma_reference.ReferencePMA`` (the per-segment loop it replaced);
after every call the physical state — not just the logical content — must be
equal, so snapshots, losses and peak device memory cannot move.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pma import PackedMemoryArray
from tests._pma_reference import ReferencePMA


class Pair:
    """One PMA of each implementation, kept in lockstep."""

    def __init__(self, capacity: int = 64) -> None:
        self.new = PackedMemoryArray(capacity)
        self.ref = ReferencePMA(capacity)

    def _assert_same_layout(self, returned_new, returned_ref) -> None:
        assert returned_new == returned_ref
        assert self.new.capacity == self.ref.capacity
        assert self.new.n_items == self.ref.n_items
        for name in ("keys", "values", "_counts", "_seg_min"):
            np.testing.assert_array_equal(getattr(self.new, name), getattr(self.ref, name), err_msg=name)
        self.new.check_invariants()

    def insert(self, keys, values) -> None:
        keys, values = np.asarray(keys, dtype=np.int64), np.asarray(values, dtype=np.int64)
        np.testing.assert_array_equal(self.new.contains_batch(keys), self.ref.contains_batch(keys))
        self._assert_same_layout(self.new.insert_batch(keys, values), self.ref.insert_batch(keys, values))

    def delete(self, keys) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        self._assert_same_layout(self.new.delete_batch(keys), self.ref.delete_batch(keys))


# 40 possible keys in batches of up to 60: duplicates, upserts, absent deletes and drains are the norm.
_TINY_BATCH = st.lists(st.integers(0, 40), max_size=60)
_TINY_OPS = st.lists(st.tuples(st.sampled_from(["ins", "del"]), _TINY_BATCH, st.integers(0, 10**6)), min_size=1, max_size=14)


@given(ops=_TINY_OPS)
@settings(max_examples=150, deadline=None)
def test_tiny_key_space_hits_every_rare_path(ops):
    pair = Pair()
    for kind, keys, salt in ops:
        if kind == "ins":
            # In-batch duplicates carry different payloads, so "last wins" is visible.
            pair.insert(keys, np.arange(len(keys)) + salt)
        else:
            pair.delete(keys)


@given(seed=st.integers(0, 10**6), universe=st.integers(30, 4000))
@settings(max_examples=120, deadline=None)
def test_random_walk_over_a_small_universe(seed, universe):
    """Batches comparable to the whole key space: growth, nested windows, underflow, shrink."""
    rng = np.random.default_rng(seed)
    pair = Pair()
    for _ in range(16):
        keys = rng.integers(0, universe, rng.integers(0, universe))
        if rng.random() < 0.55:
            pair.insert(keys, rng.integers(0, 10**6, len(keys)))
        else:
            pair.delete(keys)


@given(seed=st.integers(0, 10**6), n=st.integers(1, 2500), chunks=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_fill_then_drain_to_empty(seed, n, chunks):
    """Batches that empty the array, in one go or in ascending / shuffled pieces."""
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, 10**7, n))
    pair = Pair()
    pair.insert(keys, keys * 2)
    for piece in np.array_split(rng.permutation(keys) if seed % 2 else keys, chunks):
        pair.delete(piece)
    assert len(pair.new) == 0
    pair.insert(keys[::3], keys[::3])


@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_clustered_inserts_force_overflow_windows(seed):
    """Every key of a batch lands in a handful of neighbouring segments."""
    rng = np.random.default_rng(seed)
    base = np.unique(rng.integers(0, 10**6, 2000)) * 1000
    pair = Pair(capacity=2 * len(base))
    pair.insert(base, base)
    for _ in range(4):
        centre = int(rng.choice(base))
        burst = centre + rng.integers(-400, 400, rng.integers(20, 300))
        pair.insert(burst, burst)
        pair.delete(rng.choice(burst, len(burst) // 2))


@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_clustered_deletes_force_underflow_windows(seed):
    """Contiguous key runs vanish, so a few segments empty out next to full ones."""
    rng = np.random.default_rng(seed)
    base = np.unique(rng.integers(0, 10**7, 4000))
    pair = Pair()
    pair.insert(base, base)
    for _ in range(8):
        start = int(rng.integers(0, len(base)))
        run = base[start : start + int(rng.integers(20, 600))]
        pair.delete(run)
        pair.insert(run[::5], run[::5])


@pytest.mark.parametrize(
    "n_add, n_del, rounds",
    [(1800, 1800, 6), (32, 16, 40)],
    ids=["dtdg-update-bound-regime", "serve-churn-regime"],
)
@given(seed=st.integers(0, 10**6))
@settings(max_examples=3, deadline=None)
def test_edge_shaped_keys_at_scale(seed, n_add, n_del, rounds):
    """``src*N+dst`` keys, 100k items, GPMA-sized capacity, the benchmark's batch sizes."""
    rng = np.random.default_rng(seed)
    n = 24_000
    # Skewed sources, like a real interaction graph: long runs of keys share a row.
    src = (n * rng.random(130_000) ** 2).astype(np.int64)
    live = np.unique(src * n + rng.integers(0, n, len(src)))[:100_000]
    pair = Pair(capacity=2 * len(live))
    pair.insert(live, live)
    for _ in range(rounds):
        doomed = rng.choice(live, n_del, replace=False)
        absent = rng.integers(0, n, n_del // 8) * n + rng.integers(0, n, n_del // 8)
        pair.delete(np.concatenate([doomed, absent]))
        fresh = (n * rng.random(n_add) ** 2).astype(np.int64) * n + rng.integers(0, n, n_add)
        again = rng.choice(live, n_add // 8)  # upserts (or re-adds of just-deleted edges)
        batch = np.concatenate([fresh, again, fresh[: n_add // 16]])
        pair.insert(batch, rng.integers(0, 10**9, len(batch)))
        live = np.union1d(np.setdiff1d(live, doomed), batch)


def test_negative_keys_and_point_queries_agree():
    """Keys below SPACE (-1) are legal; ``get``/``contains`` go through ``_locate`` too."""
    pair = Pair()
    keys = np.array([-7, -3, 0, 5, 9, -100, 2**40], dtype=np.int64)
    pair.insert(keys, np.arange(len(keys)))
    for probe in [-100, -8, -7, -2, -1, 0, 1, 9, 2**40, 2**41]:
        assert pair.new.get(probe) == pair.ref.get(probe)
        assert pair.new.contains(probe) == pair.ref.contains(probe)
    pair.delete([-7, -1, 4, 2**40])
    pair.delete(keys)
    assert pair.new.get(0) is None


def test_check_invariants_reports_the_first_bad_segment():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(0, 200, 2), np.arange(100))
    seg = int(np.flatnonzero(pma.segment_counts())[2])
    base = seg * pma.seg_size
    saved = pma.keys.copy()

    def broken(slot, key, message):
        pma.keys[...] = saved
        pma.keys[slot] = key
        with pytest.raises(AssertionError, match=message):
            pma.check_invariants()

    broken(base, -1, f"SPACE inside prefix of segment {seg}")
    broken(base + pma.seg_size - 1, 10**9, f"valid key in gap of segment {seg}")
    broken(base + 1, saved[base], f"segment {seg} prefix not strictly sorted")
    broken(base, saved[base - pma.seg_size], f"global order broken at segment {seg}")
    pma.keys[...] = saved
    pma.n_items += 1
    with pytest.raises(AssertionError, match="n_items 101 != stored 100"):
        pma.check_invariants()
    pma.n_items -= 1
    pma._counts[seg] = pma.seg_size + 1
    with pytest.raises(AssertionError, match=f"segment {seg} count {pma.seg_size + 1} out of range"):
        pma.check_invariants()
