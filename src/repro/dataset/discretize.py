"""Edge-stream discretization into DTDG snapshots (paper §VII-B).

"The datasets are preprocessed to create discrete-time snapshots.  The
first half of the dataset is the first snapshot.  Then the window is moved
to obtain a second snapshot such that the percent change between any two
consecutive snapshots is always less than 10%."

The window covers ``window_fraction`` of the stream (default one half) and
slides by a step chosen so the symmetric difference between consecutive
snapshot edge *sets* stays below ``percent_change`` of the previous
snapshot's size.  Duplicate events inside a window collapse to one edge.

A window is kept as a per-edge event count, so a slide is scored and
applied from the events that leave and enter it: the edges whose count
rises from zero or falls to zero *are* the delta, and the DTDG is built
from the first window plus those deltas, never from full windows.
"""

from __future__ import annotations

import numpy as np

from repro.graph.dtdg import DTDG, EdgeUpdate
from repro.graph.labels import decode_edges, encode_edges

__all__ = ["discretize_edge_stream"]


def discretize_edge_stream(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    percent_change: float = 10.0,
    window_fraction: float = 0.5,
    max_snapshots: int | None = None,
) -> DTDG:
    """Slide a window over a chronological edge stream and emit snapshots.

    ``percent_change`` bounds |Δ(S_t, S_{t+1})| / |S_t| · 100.  The slide
    step starts at the naive estimate (each slid event adds ≤1 and removes
    ≤1 edge) and halves until the realized change respects the bound —
    duplicates inside windows make the naive estimate conservative already,
    so this almost never iterates.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    n_events = len(src)
    if n_events < 4:
        raise ValueError("edge stream too short to discretize")
    window = max(2, int(n_events * window_fraction))
    # Each event becomes the index of its distinct edge; the window is the
    # set of edges whose event count in it is positive.
    edges, ids = np.unique(encode_edges(src, dst, num_nodes), return_inverse=True)
    count = np.bincount(ids[:window], minlength=len(edges))
    size = int(np.count_nonzero(count))
    dtdg = DTDG([decode_edges(edges[count > 0], num_nodes)], num_nodes)
    step = max(1, int(size * percent_change / 100.0 / 2.0))
    start = 0

    def slide(trial: int) -> tuple[int, tuple[np.ndarray, ...]]:
        """Change count of moving the window on by ``trial`` events, with the
        edges added and removed, and the counts of the edges touched after it."""
        leave = ids[start : start + trial]
        enter = ids[start + window : start + window + trial]
        touched, at = np.unique(np.concatenate([leave, enter]), return_inverse=True)
        before = count[touched]
        after = (
            before
            + np.bincount(at[len(leave):], minlength=len(touched))
            - np.bincount(at[: len(leave)], minlength=len(touched))
        )
        added = touched[(before == 0) & (after > 0)]
        removed = touched[(before > 0) & (after == 0)]
        return len(added) + len(removed), (added, removed, touched, after)

    while start + step + window <= n_events:
        budget = percent_change / 100.0 * max(1, size)
        trial = step
        changes, move = slide(trial)
        # Duplicates inside windows make the slid-events estimate very
        # conservative — grow the step until the realized change approaches
        # (but never exceeds) the bound, so sweeping percent_change actually
        # spreads the snapshots (Figure 8's x-axis).
        while changes < 0.6 * budget and start + 2 * trial + window <= n_events:
            c2, m2 = slide(2 * trial)
            if c2 > budget:
                break
            trial, changes, move = 2 * trial, c2, m2
        while changes > budget and trial > 1:
            trial = max(1, trial // 2)
            changes, move = slide(trial)
        added, removed, touched, after = move
        count[touched] = after
        size += len(added) - len(removed)
        a_src, a_dst = decode_edges(edges[added], num_nodes)
        d_src, d_dst = decode_edges(edges[removed], num_nodes)
        dtdg.append_update(EdgeUpdate(a_src, a_dst, d_src, d_dst))
        start += trial
        step = trial
        if max_snapshots is not None and dtdg.num_timestamps >= max_snapshots:
            break
    return dtdg
