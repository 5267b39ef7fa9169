"""Discrete-time dynamic graph container.

A DTDG is a series of snapshots ``G_1 .. G_T`` (Definition II.2).  The two
storage strategies the paper compares need different inputs:

* **NaiveGraph** wants the full edge list of every snapshot;
* **GPMAGraph** wants the base graph plus per-timestamp *updates*
  (edge additions/deletions — "nearby snapshots typically vary by less
  than 10%").

:class:`DTDG` stores what GPMAGraph stores: the base snapshot, the updates
(exact set differences between consecutive snapshots), one edge count per
timestamp and the latest snapshot, which a live append normalizes against.
Any other snapshot is replayed from the closest of the base, the last one
replayed and the latest, forward or backward.  Host bytes are therefore
base + latest + one replayed snapshot + Σ updates, not T full edge sets.
It owns each snapshot's content version (:meth:`DTDG.version_of`), the key
of all reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.labels import decode_edges, encode_edges, positions_in

__all__ = ["DTDG", "EdgeUpdate"]


@dataclass(frozen=True)
class EdgeUpdate:
    """Structural delta from snapshot ``t-1`` to ``t``."""

    add_src: np.ndarray
    add_dst: np.ndarray
    del_src: np.ndarray
    del_dst: np.ndarray

    @property
    def num_changes(self) -> int:
        """Total additions plus deletions."""
        return len(self.add_src) + len(self.del_src)

    def reversed(self) -> "EdgeUpdate":
        """The delta from ``t`` back to ``t-1`` (used by Get-Backward-Graph)."""
        return EdgeUpdate(self.del_src, self.del_dst, self.add_src, self.add_dst)


def _apply_keys(keys: np.ndarray, add: np.ndarray, delete: np.ndarray) -> np.ndarray:
    """``(keys \\ delete) | add`` as a new array, for sorted unique ``keys``,
    ``add`` and ``delete`` where every ``delete`` key is in ``keys`` and no
    ``add`` key is: one masked copy plus one insert."""
    add_at = np.searchsorted(keys, add)
    del_at = np.searchsorted(keys, delete)
    keep = np.ones(len(keys), dtype=bool)
    keep[del_at] = False
    return np.insert(keys[keep], add_at - np.searchsorted(del_at, add_at), add)


class DTDG:
    """A base snapshot plus per-timestamp updates.

    Parameters
    ----------
    snapshot_edges:
        One ``(src, dst)`` pair of int arrays per timestamp.  Duplicate
        edges within a snapshot are collapsed (snapshots are simple directed
        graphs, matching the paper's link-prediction formatting).  Only the
        first snapshot and the differences between consecutive ones are
        kept; a caller holding a base and its deltas instead appends them
        with :meth:`append_update`.
    num_nodes:
        Shared vertex universe across all snapshots (DTDG vertex set may
        shrink/grow logically; isolated vertices simply have degree 0).

    One thread may append while others read any ``t < num_timestamps``: an
    append publishes ``(t, keys)`` of the latest snapshot as one tuple after
    its update is recorded, the replay memo is one tuple too, and no stored
    array is ever written in place.
    """

    def __init__(self, snapshot_edges: list[tuple[np.ndarray, np.ndarray]], num_nodes: int) -> None:
        if not snapshot_edges:
            raise ValueError("a DTDG needs at least one snapshot")
        self.num_nodes = int(num_nodes)
        snapshots = (
            np.unique(encode_edges(np.asarray(src), np.asarray(dst), self.num_nodes))
            for src, dst in snapshot_edges
        )
        self._base = next(snapshots)
        empty = np.empty(0, dtype=np.int64)
        self.updates: list[EdgeUpdate] = [EdgeUpdate(empty, empty, empty, empty)]
        self._versions = [0]  # version_of(t); grows wherever ``updates`` does
        self._counts = [len(self._base)]  # snapshot_edge_count(t); grows last
        self._latest = (0, self._base)  # (t, keys) of the last snapshot
        self._memo = (0, self._base)  # (t, keys) of the last snapshot replayed
        for curr in snapshots:
            prev = self._latest[1]
            self._push(
                np.setdiff1d(curr, prev, assume_unique=True),
                np.setdiff1d(prev, curr, assume_unique=True),
                curr,
            )

    def _push(self, add: np.ndarray, delete: np.ndarray, keys: np.ndarray) -> int:
        """Record the update ``add`` / ``delete`` (sorted keys) leading to the
        new last snapshot ``keys``; the count is appended last, so a reader
        that sees ``t < num_timestamps`` finds its update recorded."""
        a_src, a_dst = decode_edges(add, self.num_nodes)
        d_src, d_dst = decode_edges(delete, self.num_nodes)
        update = EdgeUpdate(a_src, a_dst, d_src, d_dst)
        self.updates.append(update)
        self._versions.append(self._versions[-1] + (update.num_changes > 0))
        t = len(self._counts)
        self._latest = (t, keys)
        self._counts.append(len(keys))
        return t

    @property
    def num_timestamps(self) -> int:
        """Number of snapshots."""
        return len(self._counts)

    def check_update(self, update: EdgeUpdate) -> None:
        """Raise ``ValueError`` unless ``update`` is a well-formed batch here:
        :func:`~repro.graph.labels.encode_edges` accepts each side (1-D ids of
        equal length, so nothing broadcasts into edges nobody sent, each a
        vertex of this graph)."""
        encode_edges(update.add_src, update.add_dst, self.num_nodes)
        encode_edges(update.del_src, update.del_dst, self.num_nodes)

    def append_update(self, update: EdgeUpdate) -> int:
        """Append a live update batch as a new final snapshot (serving ingest).

        The batch is normalized against the current last snapshot so the
        stored update keeps the constructor's exact-set-difference invariant:
        adding an edge that already exists (or deleting one that does not) is
        dropped, and duplicate edges within the batch collapse.  A fully
        redundant batch still appends a timestamp — its stored update is
        empty, a no-op boundary: the snapshot version is inherited, so caches
        keyed on version keep hitting.

        Returns the new timestamp index.  A malformed batch (see
        :meth:`check_update`) raises ``ValueError`` and appends nothing.
        """
        add = np.unique(encode_edges(update.add_src, update.add_dst, self.num_nodes))
        delete = np.unique(encode_edges(update.del_src, update.del_dst, self.num_nodes))
        # The latest keys are sorted and unique, so membership is a binary
        # search per batch key and the new snapshot is one masked copy plus
        # one insert.  They are replaced, not kept: earlier snapshots replay.
        prev = self._latest[1]
        add = add[~positions_in(prev, add)[1]]
        delete = delete[positions_in(prev, delete)[1]]
        return self._push(add, delete, _apply_keys(prev, add, delete))

    def version_of(self, t: int) -> int:
        """Content version of snapshot ``t``: the number of non-empty batches in
        ``1..t``.  Equal versions mean equal edge sets; an append renumbers nothing."""
        if not 0 <= t < len(self._versions):
            raise IndexError(f"timestamp {t} out of range [0, {len(self._versions)})")
        return self._versions[t]

    def snapshot_edges(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """The (src, dst) arrays of snapshot ``t`` in sorted key order."""
        return decode_edges(self.snapshot_keys(t), self.num_nodes)

    def snapshot_keys(self, t: int) -> np.ndarray:
        """Sorted unique keys of snapshot ``t``, not to be written: the latest
        as stored, any other one replayed from the closest of the base, the
        last snapshot replayed and the latest — forward, or backward through
        reversed updates (each is an exact set difference)."""
        t = range(self.num_timestamps)[t]
        latest = self._latest
        if t == latest[0]:
            return latest[1]
        at, keys = min((0, self._base), self._memo, latest, key=lambda saved: abs(saved[0] - t))
        n = self.num_nodes
        while at != t:
            update = self.updates[at + 1] if at < t else self.updates[at].reversed()
            keys = _apply_keys(
                keys,
                encode_edges(update.add_src, update.add_dst, n),
                encode_edges(update.del_src, update.del_dst, n),
            )
            at += 1 if at < t else -1
        self._memo = (t, keys)
        return keys

    def snapshot_edge_count(self, t: int) -> int:
        """Edge count of snapshot ``t``."""
        return self._counts[t]

    def percent_change(self, t: int) -> float:
        """|changes| / |edges of previous snapshot| between t-1 and t."""
        if t == 0:
            return 0.0
        denom = max(1, self._counts[t - 1])
        return 100.0 * self.updates[t].num_changes / denom

    def max_percent_change(self) -> float:
        """Largest consecutive-snapshot change over the series."""
        return max((self.percent_change(t) for t in range(1, self.num_timestamps)), default=0.0)

    def total_update_count(self) -> int:
        """Sum of all per-timestamp changes."""
        return sum(u.num_changes for u in self.updates)

    def snapshot_to_networkx(self, t: int):
        """Snapshot ``t`` as a ``networkx.DiGraph``."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_nodes))
        src, dst = self.snapshot_edges(t)
        g.add_edges_from(zip(src.tolist(), dst.tolist()))
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DTDG(T={self.num_timestamps}, N={self.num_nodes}, "
            f"E_0={self._counts[0]}, E_last={self._counts[-1]})"
        )
