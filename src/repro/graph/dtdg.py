"""Discrete-time dynamic graph container.

A DTDG is a series of snapshots ``G_1 .. G_T`` (Definition II.2).  The two
storage strategies the paper compares need different inputs:

* **NaiveGraph** wants the full edge list of every snapshot;
* **GPMAGraph** wants the base graph plus per-timestamp *updates*
  (edge additions/deletions — "nearby snapshots typically vary by less
  than 10%").

:class:`DTDG` holds both views and guarantees they are consistent: updates
are computed as exact set differences between consecutive snapshots.  It owns
each snapshot's content version (:meth:`DTDG.version_of`), the key of all reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.labels import decode_edges, encode_edges

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


def _positions_in(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower-bound position of each key in ``sorted_keys`` and whether it is there."""
    at = np.searchsorted(sorted_keys, keys)
    known = at < len(sorted_keys)
    known[known] = sorted_keys[at[known]] == keys[known]
    return at, known


class DTDG:
    """Snapshots plus derived per-timestamp updates.

    Parameters
    ----------
    snapshot_edges:
        One ``(src, dst)`` pair of int arrays per timestamp.  Duplicate
        edges within a snapshot are collapsed (snapshots are simple directed
        graphs, matching the paper's link-prediction formatting).
    num_nodes:
        Shared vertex universe across all snapshots (DTDG vertex set may
        shrink/grow logically; isolated vertices simply have degree 0).
    """

    def __init__(self, snapshot_edges: list[tuple[np.ndarray, np.ndarray]], num_nodes: int) -> None:
        if not snapshot_edges:
            raise ValueError("a DTDG needs at least one snapshot")
        self.num_nodes = int(num_nodes)
        self._keys: list[np.ndarray] = []
        for src, dst in snapshot_edges:
            keys = np.unique(encode_edges(np.asarray(src), np.asarray(dst), self.num_nodes))
            self._keys.append(keys)
        self.updates: list[EdgeUpdate] = [
            EdgeUpdate(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        ]
        self._versions = [0]  # version_of(t); grows wherever ``updates`` does
        for t in range(1, len(self._keys)):
            prev, curr = self._keys[t - 1], self._keys[t]
            added = np.setdiff1d(curr, prev, assume_unique=True)
            deleted = np.setdiff1d(prev, curr, assume_unique=True)
            a_src, a_dst = decode_edges(added, self.num_nodes)
            d_src, d_dst = decode_edges(deleted, self.num_nodes)
            self._record(EdgeUpdate(a_src, a_dst, d_src, d_dst))

    def _record(self, update: EdgeUpdate) -> None:
        self.updates.append(update)
        self._versions.append(self._versions[-1] + (update.num_changes > 0))

    @property
    def num_timestamps(self) -> int:
        """Number of snapshots."""
        return len(self._keys)

    def check_update(self, update: EdgeUpdate) -> None:
        """Raise ``ValueError`` unless ``update`` is a well-formed batch here.

        Each side's source and destination ids are 1-D and of equal length
        (unequal lengths would broadcast into edges nobody sent), and every
        id is a vertex of this graph.
        """
        for side, src, dst in (
            ("add", update.add_src, update.add_dst),
            ("delete", update.del_src, update.del_dst),
        ):
            if np.ndim(src) != 1 or np.shape(src) != np.shape(dst):
                raise ValueError(
                    f"{side} src and dst must be 1-D and of equal length, got "
                    f"shapes {np.shape(src)} and {np.shape(dst)}"
                )
            for ids in (src, dst):
                a = np.asarray(ids)
                if a.size and (a.min() < 0 or a.max() >= self.num_nodes):
                    raise ValueError(
                        f"update names vertex out of range [0, {self.num_nodes})"
                    )

    def append_update(self, update: EdgeUpdate) -> int:
        """Append a live update batch as a new final snapshot (serving ingest).

        The batch is normalized against the current last snapshot so the
        stored update keeps the constructor's exact-set-difference invariant:
        adding an edge that already exists (or deleting one that does not) is
        dropped, and duplicate edges within the batch collapse.  A fully
        redundant batch still appends a timestamp — its stored update is
        empty, a no-op boundary: the snapshot version is inherited, so caches
        keyed on version keep hitting.

        Returns the new timestamp index.
        """
        self.check_update(update)
        prev = self._keys[-1]
        add = np.unique(encode_edges(
            np.asarray(update.add_src, dtype=np.int64),
            np.asarray(update.add_dst, dtype=np.int64), self.num_nodes,
        ))
        delete = np.unique(encode_edges(
            np.asarray(update.del_src, dtype=np.int64),
            np.asarray(update.del_dst, dtype=np.int64), self.num_nodes,
        ))
        # ``prev`` is sorted and unique, so membership is a binary search per
        # batch key and the new snapshot is one masked copy plus one insert.
        add_at, add_known = _positions_in(prev, add)
        add, add_at = add[~add_known], add_at[~add_known]
        del_at, del_known = _positions_in(prev, delete)
        delete, del_at = delete[del_known], del_at[del_known]
        keep = np.ones(len(prev), dtype=bool)
        keep[del_at] = False
        self._keys.append(np.insert(prev[keep], add_at - np.searchsorted(del_at, add_at), add))
        a_src, a_dst = decode_edges(add, self.num_nodes)
        d_src, d_dst = decode_edges(delete, self.num_nodes)
        self._record(EdgeUpdate(a_src, a_dst, d_src, d_dst))
        return self.num_timestamps - 1

    def version_of(self, t: int) -> int:
        """Content version of snapshot ``t``: the number of non-empty batches in
        ``1..t``.  Equal versions mean equal edge sets; an append renumbers nothing."""
        if not 0 <= t < len(self._versions):
            raise IndexError(f"timestamp {t} out of range [0, {len(self._versions)})")
        return self._versions[t]

    def snapshot_edges(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """The (src, dst) arrays of snapshot ``t`` in sorted key order."""
        return decode_edges(self._keys[t], self.num_nodes)

    def snapshot_edge_count(self, t: int) -> int:
        """Edge count of snapshot ``t``."""
        return len(self._keys[t])

    def percent_change(self, t: int) -> float:
        """|changes| / |edges of previous snapshot| between t-1 and t."""
        if t == 0:
            return 0.0
        denom = max(1, len(self._keys[t - 1]))
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
        sizes = [len(k) for k in self._keys]
        return (
            f"DTDG(T={self.num_timestamps}, N={self.num_nodes}, "
            f"E_0={sizes[0]}, E_last={sizes[-1]})"
        )
