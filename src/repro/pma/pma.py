"""The Packed Memory Array.

Storage layout
--------------
``keys`` is one int64 array of size ``capacity`` holding the encoded edge
keys; the PMA is a gapped, sorted key *set* with no payload, because a
snapshot build relabels every edge by its rank (Algorithm 2, line 8) and
never reads a stored edge id.  Empty slots hold :data:`SPACE_KEY` — the
paper's ``SPACE`` sentinel.  The array is divided into equal segments; within
each segment the valid items occupy a *sorted prefix* (gaps at the tail), and
the concatenation of all prefixes is globally sorted.  This is the
"modified ``column_indices`` and ``edge_ids`` array which contains empty
spaces between elements" of the paper's GPMA description without the edge
ids, normalized so the gap positions are deterministic.

Updates
-------
:meth:`insert_batch` / :meth:`delete_batch` are the GPMA batch update
primitives.  A batch is one segmented pass over the segments it touches, the
way GPMA assigns one thread group per segment:

1. **route** the sorted batch through the per-segment minimum keys;
2. **gather** the touched segments as a ``(touched, seg_size)`` block;
3. **locate** every key with one ``searchsorted`` over the block's valid
   prefixes (:meth:`_locate`, which also serves ``contains_batch`` and the
   skip of keys already present);
4. **compact** (delete) or **merge** (insert) all rows at once with boolean
   masks, and **write the block back**.

Only segments that end up outside their density bound leave the pass: the
smallest enclosing *window* (aligned group of ``2**d`` segments) satisfying
the depth-``d`` bound is rebalanced by redistributing its items evenly — the
CPU equivalent of GPMA's levelwise parallel rebalance.  Overflowing windows
run before the merge, in ascending order, and take their pending keys with
them; underflowing windows run after the compaction.  When the root bound is
violated the capacity doubles (or halves) and everything is redistributed.

Complexity: amortized ``O(log^2 n)`` slot moves per update, matching the PMA
literature.  A batch costs ``O(touched * seg_size)`` element operations plus
a few ``num_segments``-long vector ops (routing table, pending counts); it
has no ``O(capacity)`` term and no Python iteration over segments except
over the windows that actually rebalance.
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

__all__ = ["PackedMemoryArray", "SPACE_KEY"]

SPACE_KEY = np.int64(-1)
_POS_INF = np.iinfo(np.int64).max


class PackedMemoryArray:
    """A gapped, sorted key set with batched updates.

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
        self._counts = alloc.zeros(self.num_segments, dtype=np.int64, tag="pma.counts")
        self._seg_min = alloc.full(self.num_segments, _POS_INF, dtype=np.int64, tag="pma.segmin")

    @property
    def density(self) -> float:
        """Fill fraction ``n_items / capacity``."""
        return self.n_items / self.capacity

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

    def _locate(self, keys: np.ndarray, segs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower-bound slot of every key inside its routed segment, and a hit mask.

        The touched segments are gathered as one ``(touched, seg_size)`` block
        whose valid prefixes, concatenated, are globally sorted, so a single
        ``searchsorted`` places every key; routing guarantees the position
        falls inside (or one past) the key's own segment prefix.
        """
        touched, row = np.unique(segs, return_inverse=True)
        counts = self._counts[touched]
        block = self.keys.reshape(-1, self.seg_size)[touched]
        prefixes = block[np.arange(self.seg_size) < counts[:, None]]
        idx = np.searchsorted(prefixes, keys) - (np.cumsum(counts) - counts)[row]
        slot = segs * self.seg_size + idx
        found = idx < counts[row]
        found[found] = self.keys[slot[found]] == keys[found]
        return slot, found

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, key: int) -> bool:
        """Membership test for one key."""
        return bool(self.contains_batch(np.asarray([key]))[0])

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership test (boolean array)."""
        keys = np.asarray(keys, dtype=np.int64)
        return self._locate(keys, self._route(keys))[1]

    def export_items(self) -> np.ndarray:
        """All valid keys in sorted order (compacted copy)."""
        return self.keys[self.keys != SPACE_KEY]

    def gapped_arrays(self) -> np.ndarray:
        """The raw gapped key storage (no copy).

        This is what Algorithm 3's ``dst != SPACE`` check iterates over.
        """
        return self.keys

    def segment_counts(self) -> np.ndarray:
        """Per-segment valid-item counts (copy)."""
        return self._counts.copy()

    # ------------------------------------------------------------------
    # Batched insert
    # ------------------------------------------------------------------
    def insert_batch(self, keys: np.ndarray) -> int:
        """Insert a batch of keys; returns the number of *new* keys.

        Duplicates within the batch collapse, and keys already present are
        skipped (no structural change).
        """
        keys = np.unique(np.asarray(keys, dtype=np.int64))
        if len(keys) == 0:
            return 0
        if np.any(keys == SPACE_KEY):
            raise ValueError("key -1 is reserved as the SPACE sentinel")
        keys = keys[~self.contains_batch(keys)]
        if len(keys) == 0:
            return 0

        # Grow proactively if the batch alone would breach the root bound.
        while (self.n_items + len(keys)) / self.capacity > self.bounds.upper(self.bounds.height):
            self._resize(self.capacity * 2)

        segs = self._route(keys)
        # Keys still to be placed, per segment; a rebalanced window zeroes its
        # range, which is how later windows and the merge know to skip it.
        pending = np.bincount(segs, minlength=self.num_segments)
        touched = np.flatnonzero(pending)
        overflowing = self._counts[touched] + pending[touched] > self.bounds.upper(0) * self.seg_size
        for seg in touched[overflowing]:
            if not pending[seg]:
                continue
            s0, s1 = self._find_insert_window(int(seg), pending)
            lo, hi = np.searchsorted(segs, [s0, s1])
            take = pending[segs[lo:hi]] > 0
            self._rebalance_window(s0, s1, extra=keys[lo:hi][take])
            pending[s0:s1] = 0
        rest = pending[segs] > 0
        self._merge_rows(keys[rest], segs[rest])
        self.n_items += len(keys)
        self._refresh_seg_min()
        return len(keys)

    def _merge_rows(self, keys: np.ndarray, segs: np.ndarray) -> None:
        """Sorted-merge absent ``keys`` into their segments, all rows at once.

        A new key lands at its lower bound plus its rank among the new keys
        of the same segment; the old prefix fills the columns left over.
        """
        slot, _ = self._locate(keys, segs)
        touched, row = np.unique(segs, return_inverse=True)
        added = np.bincount(row)
        rank = np.arange(len(keys)) - (np.cumsum(added) - added)[row]
        cols = np.arange(self.seg_size)
        old = cols < self._counts[touched, None]
        new = np.zeros_like(old)
        new[row, slot - segs * self.seg_size + rank] = True
        self._counts[touched] += added
        shifted = (cols < self._counts[touched, None]) & ~new
        rows = self.keys.reshape(-1, self.seg_size)
        block = rows[touched]
        block[shifted] = block[old]
        block[new] = keys
        rows[touched] = block

    def _find_insert_window(self, seg: int, pending: np.ndarray) -> tuple[int, int]:
        """Smallest aligned window around ``seg`` within its upper bound.

        ``pending`` holds the batch keys not yet placed per segment, so a
        window's occupancy is what it stores plus what is still headed for it.
        """
        for depth in range(1, self.bounds.height + 1):
            s0, s1 = window_bounds(seg, depth, self.num_segments)
            occupancy = int(self._counts[s0:s1].sum()) + int(pending[s0:s1].sum())
            if occupancy <= self.bounds.upper(depth) * (s1 - s0) * self.seg_size:
                return s0, s1
        # Unreachable: insert_batch grows proactively so the root window
        # (depth == height, the whole array) always satisfies its bound.
        raise RuntimeError("no window satisfies its density bound; proactive growth failed")

    # ------------------------------------------------------------------
    # Batched delete
    # ------------------------------------------------------------------
    def delete_batch(self, keys: np.ndarray) -> int:
        """Delete a batch of keys; returns how many were actually present."""
        keys = np.unique(np.asarray(keys, dtype=np.int64))
        if len(keys) == 0 or self.n_items == 0:
            return 0
        segs = self._route(keys)
        slot, present = self._locate(keys, segs)
        doomed = slot[present]
        if len(doomed) == 0:
            return 0
        # Compact every segment that loses a key: survivors slide to the
        # front of their row, the freed tail goes back to SPACE.
        hit, row = np.unique(doomed // self.seg_size, return_inverse=True)
        cols = np.arange(self.seg_size)
        keep = cols < self._counts[hit, None]
        keep[row, doomed % self.seg_size] = False
        self._counts[hit] = keep.sum(axis=1)
        packed = cols < self._counts[hit, None]
        rows = self.keys.reshape(-1, self.seg_size)
        block = np.full((len(hit), self.seg_size), SPACE_KEY, dtype=np.int64)
        block[packed] = rows[hit][keep]
        rows[hit] = block
        self.n_items -= len(doomed)

        # Fix underflowing windows bottom-up, over every routed segment in
        # ascending order, re-reading counts a rebalance may have changed.
        touched = np.unique(segs)
        lower0 = self.bounds.lower(0) * self.seg_size
        while len(under := touched[self._counts[touched] < lower0]):
            window = self._find_delete_window(int(under[0]))
            if window is None:
                break  # whole-array underflow: handled by the shrink below
            self._rebalance_window(*window)
            touched = touched[touched > under[0]]
        # Halving doubles density, and 2·rho_root <= tau_root does not hold
        # (0.6 < 0.7 does), so a single-step check per halving is safe.
        while (
            self.capacity > MIN_CAPACITY
            and self.n_items < self.bounds.lower(self.bounds.height) * self.capacity
        ):
            self._resize(self.capacity // 2)
        self._refresh_seg_min()
        return len(doomed)

    def _find_delete_window(self, seg: int) -> tuple[int, int] | None:
        """Smallest aligned window around ``seg`` within its lower bound."""
        for depth in range(1, self.bounds.height + 1):
            s0, s1 = window_bounds(seg, depth, self.num_segments)
            if int(self._counts[s0:s1].sum()) >= self.bounds.lower(depth) * (s1 - s0) * self.seg_size:
                return s0, s1
        return None

    # ------------------------------------------------------------------
    # Rebalancing & resize
    # ------------------------------------------------------------------
    def _rebalance_window(self, s0: int, s1: int, extra: np.ndarray | None = None) -> None:
        """Redistribute all keys in segments [s0, s1) evenly (plus ``extra``)."""
        window_keys = self.keys[s0 * self.seg_size : s1 * self.seg_size]
        items = window_keys[window_keys != SPACE_KEY]
        if extra is not None and len(extra):
            items = np.sort(np.concatenate([items, extra]))
        self._write_even(s0, s1, items)

    def _write_even(self, s0: int, s1: int, items: np.ndarray) -> None:
        """Spread sorted keys evenly over segments [s0, s1)."""
        w = s1 - s0
        n = len(items)
        base_count, rem = divmod(n, w)
        counts = np.full(w, base_count, dtype=np.int64)
        counts[:rem] += 1
        if counts.max(initial=0) > self.seg_size:
            raise RuntimeError("rebalance window too dense — density bound violated upstream")
        lo, hi = s0 * self.seg_size, s1 * self.seg_size
        self.keys[lo:hi] = SPACE_KEY
        if n:
            seg_ids = np.repeat(np.arange(w), counts)
            starts = np.zeros(w, dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            within = np.arange(n) - starts[seg_ids]
            slots = lo + seg_ids * self.seg_size + within
            self.keys[slots] = items
        self._counts[s0:s1] = counts

    def _resize(self, new_capacity: int) -> None:
        items = self.export_items()
        self._alloc_arrays(max(MIN_CAPACITY, new_capacity))
        self._write_even(0, self.num_segments, items)
        self._refresh_seg_min()

    # ------------------------------------------------------------------
    # Saved states (Algorithm 2's graph cache)
    # ------------------------------------------------------------------
    def save_state(self) -> tuple[np.ndarray, np.ndarray]:
        """A host copy of the storage, ``(keys, segment counts)``, for
        :meth:`restore_state`.  The copies are plain arrays the device
        allocator does not track."""
        return self.keys.copy(), self._counts.copy()

    def restore_state(self, state: tuple[np.ndarray, np.ndarray]) -> None:
        """Put the PMA back to a :meth:`save_state` copy, at its capacity."""
        keys, counts = state
        if len(keys) != self.capacity:
            self._alloc_arrays(len(keys))
        self.keys[...] = keys
        self._counts[...] = counts
        self.n_items = int(counts.sum())
        self._refresh_seg_min()

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        assert self.capacity == self.num_segments * self.seg_size
        counts = self._counts

        def check(bad: np.ndarray, message: str) -> None:
            """``bad`` flags segments; report the first one flagged."""
            seg = int(np.argmax(bad))
            assert not bad[seg], message.format(seg=seg, count=int(counts[seg]))

        check((counts < 0) | (counts > self.seg_size), "segment {seg} count {count} out of range")
        keys = self.keys.reshape(-1, self.seg_size)
        in_prefix = np.arange(self.seg_size) < counts[:, None]
        is_space = keys == SPACE_KEY
        check((is_space & in_prefix).any(axis=1), "SPACE inside prefix of segment {seg}")
        check((~is_space & ~in_prefix).any(axis=1), "valid key in gap of segment {seg}")
        unsorted = (keys[:, 1:] <= keys[:, :-1]) & in_prefix[:, 1:]
        check(unsorted.any(axis=1), "segment {seg} prefix not strictly sorted")
        filled = np.flatnonzero(counts)
        out_of_order = np.zeros(self.num_segments, dtype=bool)
        out_of_order[filled[1:]] = keys[filled[:-1], counts[filled[:-1]] - 1] >= keys[filled[1:], 0]
        check(out_of_order, "global order broken at segment {seg}")
        total = int(counts.sum())
        assert total == self.n_items, f"n_items {self.n_items} != stored {total}"

    def __len__(self) -> int:
        return self.n_items

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PackedMemoryArray(n={self.n_items}, capacity={self.capacity}, "
            f"segments={self.num_segments}×{self.seg_size}, density={self.density:.2f})"
        )
