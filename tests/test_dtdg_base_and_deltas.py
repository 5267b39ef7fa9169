"""The DTDG stores a base graph and its deltas, and reads like full snapshots.

* an in-test oracle keeps today's full-snapshot storage (one sorted key
  array per timestamp) and the full-window discretization it was built from;
* every DTDG loader, and random append sequences, read ``array_equal`` to it
  at every ``t``, in order, reversed and permuted (so the replay from the base
  runs as well as the in-order memo);
* discretization emits exactly the set difference of consecutive windows;
* stored bytes stay O(batch) per append, and a reader racing an appender
  always sees a consistent snapshot.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.dataset.dynamic_datasets as dynamic_datasets
from repro.dataset import discretize_edge_stream
from repro.graph import DTDG, EdgeUpdate
from repro.graph.labels import encode_edges


# ---------------------------------------------------------------------------
# Oracle: full snapshots, as the DTDG stored them before it kept deltas
# ---------------------------------------------------------------------------
def _oracle_append(snapshots: list[np.ndarray], n: int, update: EdgeUpdate) -> None:
    add = encode_edges(update.add_src, update.add_dst, n)
    delete = encode_edges(update.del_src, update.del_dst, n)
    prev = snapshots[-1]  # an edge both added and deleted keeps only the change it makes
    snapshots.append(np.union1d(np.setdiff1d(prev, delete), np.setdiff1d(add, prev)))


def _oracle_discretize(keys, window_fraction, percent_change, max_snapshots):
    """Full windows: ``(snapshot keys, window starts, whether a step halved to 1)``."""
    n_events = len(keys)
    window = max(2, int(n_events * window_fraction))
    snaps, starts, halved_to_one = [np.unique(keys[:window])], [0], False
    step = max(1, int(len(snaps[0]) * percent_change / 100.0 / 2.0))
    start = 0
    while start + step + window <= n_events:
        prev = snaps[-1]
        budget = percent_change / 100.0 * max(1, len(prev))

        def realized(trial):
            nxt = np.unique(keys[start + trial : start + trial + window])
            return len(np.setxor1d(nxt, prev, assume_unique=True)), nxt

        trial = step
        changes, nxt = realized(trial)
        while changes < 0.6 * budget and start + 2 * trial + window <= n_events:
            c2, n2 = realized(2 * trial)
            if c2 > budget:
                break
            trial, changes, nxt = 2 * trial, c2, n2
        while changes > budget and trial > 1:
            trial = max(1, trial // 2)
            changes, nxt = realized(trial)
            halved_to_one |= trial == 1
        snaps.append(nxt)
        start += trial
        step = trial
        starts.append(start)
        if max_snapshots is not None and len(snaps) >= max_snapshots:
            break
    return snaps, starts, halved_to_one


def _keys_at(dtdg: DTDG, t: int) -> np.ndarray:
    return encode_edges(*dtdg.snapshot_edges(t), dtdg.num_nodes)


def _assert_reads_equal(dtdg: DTDG, oracle: list[np.ndarray], order) -> None:
    assert dtdg.num_timestamps == len(oracle)
    for t in order:
        keys = _keys_at(dtdg, int(t))
        np.testing.assert_array_equal(keys, oracle[t], err_msg=f"t={t}")
        assert dtdg.snapshot_edge_count(int(t)) == len(oracle[t])


def _three_orders(T: int, seed: int):
    return range(T), range(T - 1, -1, -1), np.random.default_rng(seed).permutation(T)


# ---------------------------------------------------------------------------
# Every DTDG loader reads like its full-window snapshots
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "name, scale",
    [(name, 0.1) for name in dynamic_datasets.DYNAMIC_DATASETS] + [("sx-mathoverflow", 1.0)],
)
def test_loader_snapshots_equal_full_window_oracle(monkeypatch, name, scale):
    calls = []

    def recording(src, dst, num_nodes, percent_change, max_snapshots):
        calls.append((encode_edges(src, dst, num_nodes), percent_change, max_snapshots))
        return discretize_edge_stream(src, dst, num_nodes, percent_change=percent_change, max_snapshots=max_snapshots)

    monkeypatch.setattr(dynamic_datasets, "discretize_edge_stream", recording)
    dtdg = dynamic_datasets.DYNAMIC_DATASETS[name](scale=scale).dtdg
    (keys, pct, cap), = calls
    oracle, _, _ = _oracle_discretize(keys, 0.5, pct, cap)
    for order in _three_orders(len(oracle), seed=len(name)):
        _assert_reads_equal(dtdg, oracle, order)


# ---------------------------------------------------------------------------
# Discretize is a function of the window sets
# ---------------------------------------------------------------------------
def _assert_deltas_are_window_differences(stream, n, pct, fraction, cap):
    src, dst = stream // n, stream % n
    dtdg = discretize_edge_stream(src, dst, n, percent_change=pct, window_fraction=fraction, max_snapshots=cap)
    _, starts, halved_to_one = _oracle_discretize(stream, fraction, pct, cap)
    window = max(2, int(len(stream) * fraction))
    windows = [np.unique(stream[s : s + window]) for s in starts]
    assert dtdg.num_timestamps == len(windows)
    np.testing.assert_array_equal(_keys_at(dtdg, 0), windows[0])
    for t in range(1, len(windows)):
        up = dtdg.updates[t]
        np.testing.assert_array_equal(encode_edges(up.add_src, up.add_dst, n), np.setdiff1d(windows[t], windows[t - 1]))
        np.testing.assert_array_equal(encode_edges(up.del_src, up.del_dst, n), np.setdiff1d(windows[t - 1], windows[t]))
    return halved_to_one


@given(
    seed=st.integers(0, 2**32 - 1),
    segments=st.lists(st.tuples(st.integers(1, 60), st.integers(1, 400)), min_size=1, max_size=5),
    pct=st.floats(0.5, 30.0),
    fraction=st.floats(0.1, 0.9),
    cap=st.one_of(st.none(), st.integers(1, 12)),
)
@settings(max_examples=150, deadline=None)
def test_discretize_deltas_are_window_set_differences(seed, segments, pct, fraction, cap):
    """A stream is segments of events over alphabets of different sizes, so
    the window set shrinks and grows and the step halves as well as doubles."""
    rng = np.random.default_rng(seed)
    n = 12
    stream = np.concatenate([rng.integers(0, min(alphabet, n * n), size) for alphabet, size in segments])
    if len(stream) < 4:
        return
    _assert_deltas_are_window_differences(stream, n, pct, fraction, cap)


def test_discretize_step_that_halves_down_to_one():
    """200 distinct edges then one edge repeated: the window set shrinks below
    the step's change, so the step halves until it is a single event."""
    n = 30
    stream = np.concatenate([np.arange(200), np.full(200, 7)]).astype(np.int64)
    assert _assert_deltas_are_window_differences(stream, n, 10.0, 0.5, None)


# ---------------------------------------------------------------------------
# Random append sequences read like the full-snapshot oracle
# ---------------------------------------------------------------------------
def _random_batch(rng, n: int, prev: np.ndarray, shape: str) -> EdgeUpdate:
    add = rng.integers(0, n * n, 0 if shape == "empty" else int(rng.integers(0, 12)))
    delete = rng.integers(0, n * n, 0 if shape == "empty" else int(rng.integers(0, 12)))
    if shape == "redundant":  # every add already there, every delete absent
        add = rng.choice(prev, 5) if len(prev) else prev
        delete = np.setdiff1d(np.arange(n * n), prev)[:5]
    return EdgeUpdate(add // n, add % n, delete // n, delete % n)


@given(
    seed=st.integers(0, 2**32 - 1),
    snapshots=st.integers(1, 4),
    shapes=st.lists(st.sampled_from(["mixed", "redundant", "empty"]), max_size=12),
    reads=st.lists(st.integers(0, 10**6), max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_random_appends_read_like_full_snapshots(seed, snapshots, shapes, reads):
    rng = np.random.default_rng(seed)
    n = 8
    snaps = [(rng.integers(0, n, m), rng.integers(0, n, m)) for m in rng.integers(0, 30, snapshots)]
    dtdg = DTDG(snaps, n)
    oracle = [np.unique(encode_edges(s, d, n)) for s, d in snaps]
    for i, shape in enumerate(shapes):
        update = _random_batch(rng, n, oracle[-1], shape)
        assert dtdg.append_update(update) == len(oracle)
        _oracle_append(oracle, n, update)
        if i < len(reads):  # move the memo somewhere between appends
            t = reads[i] % len(oracle)
            np.testing.assert_array_equal(_keys_at(dtdg, t), oracle[t])
    for order in _three_orders(len(oracle), seed):
        _assert_reads_equal(dtdg, oracle, order)


# ---------------------------------------------------------------------------
# Stored bytes: base + latest + memo + O(batch) per append
# ---------------------------------------------------------------------------
def _stored_arrays(obj, seen: dict[int, np.ndarray]) -> None:
    if isinstance(obj, np.ndarray):
        seen[id(obj)] = obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _stored_arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            _stored_arrays(item, seen)
    elif hasattr(obj, "__dict__"):
        _stored_arrays(vars(obj), seen)


def test_stored_bytes_grow_with_the_batches_not_the_snapshots():
    rng = np.random.default_rng(5)
    n, m = 2000, 20_000
    dtdg = DTDG([(rng.integers(0, n, m), rng.integers(0, n, m))], n)
    batch_keys = 0
    for i in range(1440):
        update = _random_batch(rng, n, _keys_at(dtdg, -1), "mixed")
        batch_keys += len(update.add_src) + len(update.del_src)
        dtdg.append_update(update)
        if i % 97 == 0:
            dtdg.snapshot_edges(i // 2)  # a replayed snapshot is held too
    seen: dict[int, np.ndarray] = {}
    _stored_arrays(dtdg, seen)
    stored = sum(a.nbytes for a in seen.values())
    snapshot_bytes = 8 * max(dtdg.snapshot_edge_count(t) for t in range(dtdg.num_timestamps))
    # base, latest and memo are one sorted int64 key array each; a stored
    # update holds an int64 src and dst per batch key that survived.
    bound = 3 * snapshot_bytes + 16 * batch_keys
    assert stored <= bound, (stored, bound)


# ---------------------------------------------------------------------------
# A reader racing an appender sees consistent snapshots
# ---------------------------------------------------------------------------
def test_reader_racing_appends_sees_consistent_snapshots():
    """One thread appends 500 batches while another reads.  The appender
    yields the GIL at every line of the DTDG's own code, so the reader also
    runs between the statements of one append, not only between appends.
    After each append the appender waits until the reader has finished a
    read that started after that append began, so every append is raced by
    at least one read however few lines it runs."""
    rng = np.random.default_rng(11)
    n, m = 300, 3000
    base = (rng.integers(0, n, m), rng.integers(0, n, m))
    oracle = [np.unique(encode_edges(*base, n))]
    batches = []
    for _ in range(500):
        batches.append(_random_batch(rng, n, oracle[-1], "mixed"))
        _oracle_append(oracle, n, batches[-1])
    dtdg = DTDG([base], n)
    done = threading.Event()
    errors: list[str] = []
    progress = threading.Condition()
    begun = [0]  # appends begun
    covered = [0]  # appends begun before the start of the last finished read

    def reader():
        pick = np.random.default_rng(12)
        while not done.is_set():
            with progress:
                after = begun[0]
            T = dtdg.num_timestamps
            # mostly the newest snapshots, where the appender races
            t = T - 1 - int(pick.integers(0, min(T, 3))) if pick.random() < 0.7 else int(pick.integers(0, T))
            keys = _keys_at(dtdg, t)
            count = dtdg.snapshot_edge_count(t)
            if len(keys) != count or not np.array_equal(keys, oracle[t]):
                errors.append(f"t={t}: {len(keys)} keys, count {count}, oracle {len(oracle[t])}")
            with progress:
                covered[0] = after
                progress.notify_all()

    dtdg_code = DTDG.__init__.__code__.co_filename

    def yield_on_each_line(frame, event, arg):
        if event == "line":
            time.sleep(0)
        return yield_on_each_line

    def trace(frame, event, arg):
        return yield_on_each_line if frame.f_code.co_filename == dtdg_code else None

    thread = threading.Thread(target=reader)
    thread.start()
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for i, update in enumerate(batches, 1):
            with progress:
                begun[0] = i
            dtdg.append_update(update)
            with progress:
                assert progress.wait_for(lambda: covered[0] >= i, timeout=30), f"no read after append {i}"
    finally:
        sys.settrace(previous)
        done.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert not errors, errors[:5]
    assert dtdg.num_timestamps == len(oracle)
