"""Frozen layout oracle for :class:`repro.pma.PackedMemoryArray` (test-only).

This is the per-segment-loop PMA exactly as it stood before the segmented
batch pass replaced it (``src/repro/pma/pma.py`` at commit b390f3d), class
renamed and nothing else changed.  It is **not a code path**: nothing under
``src/`` may import it, and it must not be edited to follow ``pma.py``.
``tests/test_pma_differential.py`` and the ``benchmarks/test_micro_pma.py``
speed gates drive the same operation sequence through both classes and
require ``keys``, ``values``, ``_counts``, ``_seg_min``, ``capacity``,
``n_items`` and every return value to be equal after every call.
"""

from __future__ import annotations

import math

import numpy as np

from repro.device import current_device
from repro.pma.segment import (
    MIN_CAPACITY,
    DensityBounds,
    segment_size_for_capacity,
    window_bounds,
)

__all__ = ["ReferencePMA", "SPACE_KEY"]

SPACE_KEY = np.int64(-1)
_POS_INF = np.iinfo(np.int64).max


class ReferencePMA:
    """A gapped, sorted key/value store with batched updates.

    Parameters
    ----------
    capacity:
        Initial slot count (rounded up to a power of two, min 64).
    """

    def __init__(self, capacity: int = MIN_CAPACITY) -> None:
        capacity = max(MIN_CAPACITY, 1 << max(0, int(math.ceil(math.log2(max(1, capacity))))))
        self._alloc_arrays(capacity)
        self.n_items = 0

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def _alloc_arrays(self, capacity: int) -> None:
        alloc = current_device().alloc
        self.capacity = capacity
        self.seg_size = segment_size_for_capacity(capacity)
        self.num_segments = capacity // self.seg_size
        self.bounds = DensityBounds(self.num_segments)
        self.keys = alloc.full(capacity, SPACE_KEY, dtype=np.int64, tag="pma.keys")
        self.values = alloc.full(capacity, -1, dtype=np.int64, tag="pma.values")
        self._counts = alloc.zeros(self.num_segments, dtype=np.int64, tag="pma.counts")
        self._seg_min = alloc.full(self.num_segments, _POS_INF, dtype=np.int64, tag="pma.segmin")

    @property
    def density(self) -> float:
        """Fill fraction ``n_items / capacity``."""
        return self.n_items / self.capacity

    def _seg_slice(self, seg: int) -> slice:
        start = seg * self.seg_size
        return slice(start, start + int(self._counts[seg]))

    def _refresh_seg_min(self) -> None:
        """Recompute the per-segment minimum-key array used for routing.

        Empty segments inherit the *next* non-empty segment's minimum
        (backward fill, trailing empties get +inf) so the array is
        non-decreasing and a key routes to the segment that holds its
        in-order predecessor — inserting there preserves global order.
        """
        starts = np.arange(self.num_segments) * self.seg_size
        firsts = np.where(self._counts > 0, self.keys[starts], _POS_INF)
        self._seg_min[:] = np.minimum.accumulate(firsts[::-1])[::-1]

    def _route(self, keys: np.ndarray) -> np.ndarray:
        """Target segment per key: rightmost segment whose min ≤ key.

        A key smaller than every segment minimum clips to segment 0; a key
        past the last minimum routes to the last non-empty segment (trailing
        empty segments hold +inf and are never selected).
        """
        segs = np.searchsorted(self._seg_min, keys, side="right") - 1
        return np.clip(segs, 0, self.num_segments - 1)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, key: int) -> bool:
        """Membership test for one key."""
        return self.get(key) is not None

    def get(self, key: int) -> int | None:
        """Payload for ``key`` or ``None``."""
        if self.n_items == 0:
            return None
        seg = int(self._route(np.asarray([key], dtype=np.int64))[0])
        sl = self._seg_slice(seg)
        idx = np.searchsorted(self.keys[sl], key)
        base = seg * self.seg_size
        if idx < int(self._counts[seg]) and self.keys[base + idx] == key:
            return int(self.values[base + idx])
        return None

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership test (boolean array)."""
        keys = np.asarray(keys, dtype=np.int64)
        if self.n_items == 0:
            return np.zeros(len(keys), dtype=bool)
        valid_keys, _ = self.export_items()
        pos = np.searchsorted(valid_keys, keys)
        pos_clipped = np.minimum(pos, len(valid_keys) - 1)
        return (pos < len(valid_keys)) & (valid_keys[pos_clipped] == keys)

    def export_items(self) -> tuple[np.ndarray, np.ndarray]:
        """All valid ``(keys, values)`` in sorted order (compacted copy)."""
        mask = self.keys != SPACE_KEY
        return self.keys[mask], self.values[mask]

    def gapped_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw gapped ``(keys, values)`` storage (no copy).

        This is what Algorithm 3's ``dst != SPACE`` check iterates over.
        """
        return self.keys, self.values

    def segment_counts(self) -> np.ndarray:
        """Per-segment valid-item counts (copy)."""
        return self._counts.copy()

    # ------------------------------------------------------------------
    # Batched insert
    # ------------------------------------------------------------------
    def insert_batch(self, keys: np.ndarray, values: np.ndarray) -> int:
        """Insert (or upsert) a batch; returns the number of *new* keys."""
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if keys.shape != values.shape:
            raise ValueError("keys and values must have equal length")
        if len(keys) == 0:
            return 0
        if np.any(keys == SPACE_KEY):
            raise ValueError("key -1 is reserved as the SPACE sentinel")
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        # Last occurrence wins on intra-batch duplicates.
        uniq_mask = np.empty(len(keys), dtype=bool)
        uniq_mask[:-1] = keys[:-1] != keys[1:]
        uniq_mask[-1] = True
        keys, values = keys[uniq_mask], values[uniq_mask]

        # Upsert keys that already exist (no structural change).
        present = self.contains_batch(keys)
        if present.any():
            for k, v in zip(keys[present], values[present]):
                self._overwrite(int(k), int(v))
            keys, values = keys[~present], values[~present]
        if len(keys) == 0:
            return 0

        # Grow proactively if the batch alone would breach the root bound.
        while (self.n_items + len(keys)) / self.capacity > self.bounds.upper(self.bounds.height):
            self._resize(self.capacity * 2, extra_keys=None)

        segs = self._route(keys)
        pending_per_seg = np.bincount(segs, minlength=self.num_segments)
        touched = np.flatnonzero(pending_per_seg)
        seg_offsets = np.zeros(self.num_segments + 1, dtype=np.int64)
        np.cumsum(pending_per_seg, out=seg_offsets[1:])

        handled = np.zeros(self.num_segments, dtype=bool)
        upper0 = self.bounds.upper(0) * self.seg_size
        for seg in touched:
            if handled[seg]:
                continue
            new_count = int(self._counts[seg]) + int(pending_per_seg[seg])
            pend_sl = slice(int(seg_offsets[seg]), int(seg_offsets[seg + 1]))
            if new_count <= upper0:
                self._merge_into_segment(int(seg), keys[pend_sl], values[pend_sl])
                handled[seg] = True
            else:
                s0, s1 = self._find_insert_window(int(seg), pending_per_seg, handled)
                self._rebalance_window(
                    s0,
                    s1,
                    extra=self._collect_pending(s0, s1, keys, values, segs, seg_offsets, handled),
                )
        self.n_items += len(keys)
        self._refresh_seg_min()
        return len(keys)

    def _overwrite(self, key: int, value: int) -> None:
        seg = int(self._route(np.asarray([key], dtype=np.int64))[0])
        base = seg * self.seg_size
        idx = int(np.searchsorted(self.keys[self._seg_slice(seg)], key))
        if idx < int(self._counts[seg]) and self.keys[base + idx] == key:
            self.values[base + idx] = value
        else:  # pragma: no cover - guarded by contains_batch
            raise KeyError(key)

    def _merge_into_segment(self, seg: int, new_keys: np.ndarray, new_values: np.ndarray) -> None:
        base = seg * self.seg_size
        count = int(self._counts[seg])
        merged_k = np.concatenate([self.keys[base : base + count], new_keys])
        merged_v = np.concatenate([self.values[base : base + count], new_values])
        order = np.argsort(merged_k, kind="stable")
        total = len(merged_k)
        self.keys[base : base + total] = merged_k[order]
        self.values[base : base + total] = merged_v[order]
        self._counts[seg] = total

    def _find_insert_window(
        self, seg: int, pending_per_seg: np.ndarray, handled: np.ndarray
    ) -> tuple[int, int]:
        """Smallest aligned window around ``seg`` within its upper bound.

        Pending items of already-handled segments are excluded: their counts
        were folded into ``_counts`` by the earlier local merge.
        """
        for depth in range(1, self.bounds.height + 1):
            s0, s1 = window_bounds(seg, depth, self.num_segments)
            pend = pending_per_seg[s0:s1][~handled[s0:s1]]
            occupancy = int(self._counts[s0:s1].sum()) + int(pend.sum())
            if occupancy <= self.bounds.upper(depth) * (s1 - s0) * self.seg_size:
                return s0, s1
        # Unreachable: insert_batch grows proactively so the root window
        # (depth == height, the whole array) always satisfies its bound.
        raise RuntimeError("no window satisfies its density bound; proactive growth failed")

    def _collect_pending(
        self,
        s0: int,
        s1: int,
        keys: np.ndarray,
        values: np.ndarray,
        segs: np.ndarray,
        seg_offsets: np.ndarray,
        handled: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Consume all not-yet-handled pending items routed into [s0, s1)."""
        take = (segs >= s0) & (segs < s1) & ~handled[segs]
        handled[s0:s1] = True
        return keys[take], values[take]

    # ------------------------------------------------------------------
    # Batched delete
    # ------------------------------------------------------------------
    def delete_batch(self, keys: np.ndarray) -> int:
        """Delete a batch of keys; returns how many were actually present."""
        keys = np.unique(np.asarray(keys, dtype=np.int64))
        if len(keys) == 0 or self.n_items == 0:
            return 0
        segs = self._route(keys)
        removed_total = 0
        for seg in np.unique(segs):
            seg = int(seg)
            base = seg * self.seg_size
            count = int(self._counts[seg])
            if count == 0:
                continue
            seg_keys = self.keys[base : base + count]
            doomed = keys[segs == seg]
            keep_mask = ~np.isin(seg_keys, doomed)
            removed = count - int(keep_mask.sum())
            if removed == 0:
                continue
            kept = int(keep_mask.sum())
            self.keys[base : base + kept] = seg_keys[keep_mask]
            self.values[base : base + kept] = self.values[base : base + count][keep_mask]
            self.keys[base + kept : base + count] = SPACE_KEY
            self.values[base + kept : base + count] = -1
            self._counts[seg] = kept
            removed_total += removed
        if removed_total == 0:
            return 0
        self.n_items -= removed_total

        # Fix underflowing windows bottom-up.
        lower0 = self.bounds.lower(0) * self.seg_size
        for seg in np.unique(segs):
            seg = int(seg)
            if int(self._counts[seg]) >= lower0:
                continue
            for depth in range(1, self.bounds.height + 1):
                s0, s1 = window_bounds(seg, depth, self.num_segments)
                occ = int(self._counts[s0:s1].sum())
                if occ >= self.bounds.lower(depth) * (s1 - s0) * self.seg_size:
                    self._rebalance_window(s0, s1)
                    break
            else:
                break  # whole-array underflow: handled by the shrink below
        # Halving doubles density, and 2·rho_root <= tau_root does not hold
        # (0.6 < 0.7 does), so a single-step check per halving is safe.
        while (
            self.capacity > MIN_CAPACITY
            and self.n_items < self.bounds.lower(self.bounds.height) * self.capacity
        ):
            self._resize(self.capacity // 2, extra_keys=None)
        self._refresh_seg_min()
        return removed_total

    # ------------------------------------------------------------------
    # Rebalancing & resize
    # ------------------------------------------------------------------
    def _rebalance_window(
        self,
        s0: int,
        s1: int,
        extra: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Redistribute all items in segments [s0, s1) evenly (plus ``extra``)."""
        lo, hi = s0 * self.seg_size, s1 * self.seg_size
        window_keys = self.keys[lo:hi]
        mask = window_keys != SPACE_KEY
        items_k = window_keys[mask]
        items_v = self.values[lo:hi][mask]
        if extra is not None and len(extra[0]):
            items_k = np.concatenate([items_k, extra[0]])
            items_v = np.concatenate([items_v, extra[1]])
            order = np.argsort(items_k, kind="stable")
            items_k, items_v = items_k[order], items_v[order]
        self._write_even(s0, s1, items_k, items_v)

    def _write_even(self, s0: int, s1: int, items_k: np.ndarray, items_v: np.ndarray) -> None:
        """Spread sorted items evenly over segments [s0, s1)."""
        w = s1 - s0
        n = len(items_k)
        base_count, rem = divmod(n, w)
        counts = np.full(w, base_count, dtype=np.int64)
        counts[:rem] += 1
        if counts.max(initial=0) > self.seg_size:
            raise RuntimeError("rebalance window too dense — density bound violated upstream")
        lo, hi = s0 * self.seg_size, s1 * self.seg_size
        self.keys[lo:hi] = SPACE_KEY
        self.values[lo:hi] = -1
        if n:
            seg_ids = np.repeat(np.arange(w), counts)
            starts = np.zeros(w, dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            within = np.arange(n) - starts[seg_ids]
            slots = lo + seg_ids * self.seg_size + within
            self.keys[slots] = items_k
            self.values[slots] = items_v
        self._counts[s0:s1] = counts

    def _resize(self, new_capacity: int, extra_keys: None) -> None:
        items_k, items_v = self.export_items()
        new_capacity = max(MIN_CAPACITY, new_capacity)
        self._alloc_arrays(new_capacity)
        self._write_even(0, self.num_segments, items_k, items_v)
        self._refresh_seg_min()

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        assert self.capacity == self.num_segments * self.seg_size
        total = 0
        prev_last: int | None = None
        for seg in range(self.num_segments):
            base = seg * self.seg_size
            count = int(self._counts[seg])
            assert 0 <= count <= self.seg_size, f"segment {seg} count {count} out of range"
            prefix = self.keys[base : base + count]
            tail = self.keys[base + count : base + self.seg_size]
            assert np.all(prefix != SPACE_KEY), f"SPACE inside prefix of segment {seg}"
            assert np.all(tail == SPACE_KEY), f"valid key in gap of segment {seg}"
            if count > 1:
                assert np.all(np.diff(prefix) > 0), f"segment {seg} prefix not strictly sorted"
            if count > 0:
                if prev_last is not None:
                    assert prev_last < int(prefix[0]), f"global order broken at segment {seg}"
                prev_last = int(prefix[-1])
            total += count
        assert total == self.n_items, f"n_items {self.n_items} != stored {total}"

    def __len__(self) -> int:
        return self.n_items

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReferencePMA(n={self.n_items}, capacity={self.capacity}, "
            f"segments={self.num_segments}×{self.seg_size}, density={self.density:.2f})"
        )
