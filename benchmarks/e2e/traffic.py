"""The benchmark's own seeded traffic: query vertices, update batches, input hash.

The program's ``repro.serve.random_update_batches`` is program code and may
change with it; the benchmark's inputs may not, so they are generated here
from the seed alone and fingerprinted with :func:`input_sha256`.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

__all__ = ["query_vertices", "update_batches", "input_sha256"]

#: ``(add_src, add_dst, del_src, del_dst)``
Batch = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def query_vertices(seed: int, client: int, count: int, edge_dst: np.ndarray) -> np.ndarray:
    """The vertices client ``client`` queries, in order: popular vertices more often.

    A query reads the destination of a uniformly drawn live edge, so a
    vertex is read in proportion to its in-degree, as the deletes of
    :func:`update_batches` pick their endpoints.  Such a read is dirty after
    87 % of the updates (a uniform one after 31 %), which keeps the slowest
    group of queries, the reads that wait behind an update and then need the
    forward, at 4 % of all: ``query_p99_ms`` sits inside that group and not
    on its edge.
    """
    rng = np.random.default_rng([seed, 1, client])
    return np.asarray(edge_dst, dtype=np.int64)[rng.integers(0, len(edge_dst), size=count)]


def update_batches(
    seed: int, edge_keys: np.ndarray, num_nodes: int, count: int, adds: int = 32, deletes: int = 16
) -> list[Batch]:
    """``count`` consecutive batches against the live edge set.

    ``edge_keys`` are the ``src * num_nodes + dst`` keys of the snapshot the
    first batch lands on.  Each batch deletes ``deletes`` edges that exist
    and adds ``adds`` that do not (no self loops), and the set moves forward
    with it, so no batch is redundant and none fails.
    """
    rng = np.random.default_rng([seed, 2])
    live = np.unique(np.asarray(edge_keys, dtype=np.int64))
    n = np.int64(num_nodes)
    out: list[Batch] = []
    for _ in range(count):
        gone = np.sort(rng.choice(live, size=min(deletes, len(live)), replace=False))
        fresh = np.empty(0, dtype=np.int64)
        while len(fresh) < adds:
            src = rng.integers(0, num_nodes, size=2 * adds, dtype=np.int64)
            dst = rng.integers(0, num_nodes, size=2 * adds, dtype=np.int64)
            keys = (src * n + dst)[src != dst]
            at = np.minimum(np.searchsorted(live, keys), len(live) - 1)  # live is sorted
            keys = keys[live[at] != keys]
            fresh = np.unique(np.concatenate([fresh, keys]))
        fresh = np.sort(rng.permutation(fresh)[:adds])
        out.append((fresh // n, fresh % n, gone // n, gone % n))
        live = np.delete(live, np.searchsorted(live, gone))
        live = np.insert(live, np.searchsorted(live, fresh), fresh)  # both sorted: live stays sorted
    return out


def input_sha256(arrays: Iterable[np.ndarray]) -> str:
    """Fingerprint of a workload's generated inputs (dtype, shape and bytes)."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()
