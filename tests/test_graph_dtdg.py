"""DTDG container: update derivation and consistency."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import DTDG, EdgeUpdate
from repro.graph.labels import encode_edges


def _snap(*pairs):
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def test_single_snapshot():
    dtdg = DTDG([_snap((0, 1), (1, 2))], 3)
    assert dtdg.num_timestamps == 1
    assert dtdg.updates[0].num_changes == 0
    s, d = dtdg.snapshot_edges(0)
    assert set(zip(s.tolist(), d.tolist())) == {(0, 1), (1, 2)}


def test_updates_are_exact_diffs():
    dtdg = DTDG([_snap((0, 1), (1, 2)), _snap((1, 2), (2, 0))], 3)
    up = dtdg.updates[1]
    assert set(zip(up.add_src.tolist(), up.add_dst.tolist())) == {(2, 0)}
    assert set(zip(up.del_src.tolist(), up.del_dst.tolist())) == {(0, 1)}
    assert up.num_changes == 2


def test_duplicate_edges_collapsed():
    dtdg = DTDG([_snap((0, 1), (0, 1), (1, 2))], 3)
    assert dtdg.snapshot_edge_count(0) == 2


def test_applying_updates_reconstructs_snapshots(rng):
    n = 30
    snaps = []
    keys = set(map(tuple, rng.integers(0, n, (40, 2)).tolist()))
    keys = {(s, d) for s, d in keys if s != d}
    for t in range(5):
        if t:
            drop = list(keys)[:3]
            for k in drop:
                keys.discard(k)
            for _ in range(5):
                s, d = rng.integers(0, n, 2)
                if s != d:
                    keys.add((int(s), int(d)))
        arr = np.array(sorted(keys), dtype=np.int64)
        snaps.append((arr[:, 0].copy(), arr[:, 1].copy()))
    dtdg = DTDG(snaps, n)
    # replay updates from snapshot 0
    current = set(encode_edges(*dtdg.snapshot_edges(0), n).tolist())
    for t in range(1, dtdg.num_timestamps):
        up = dtdg.updates[t]
        current -= set(encode_edges(up.del_src, up.del_dst, n).tolist())
        current |= set(encode_edges(up.add_src, up.add_dst, n).tolist())
        expect = set(encode_edges(*dtdg.snapshot_edges(t), n).tolist())
        assert current == expect, t


def test_reversed_update_inverts():
    up = EdgeUpdate(
        np.array([1]), np.array([2]), np.array([3]), np.array([4])
    )
    r = up.reversed()
    assert r.add_src.tolist() == [3] and r.add_dst.tolist() == [4]
    assert r.del_src.tolist() == [1] and r.del_dst.tolist() == [2]


def test_percent_change():
    dtdg = DTDG(
        [_snap((0, 1), (1, 2), (2, 3), (3, 0)), _snap((0, 1), (1, 2), (2, 3), (0, 2))], 4
    )
    # 1 added + 1 deleted out of 4 edges = 50%
    assert dtdg.percent_change(1) == pytest.approx(50.0)
    assert dtdg.percent_change(0) == 0.0
    assert dtdg.max_percent_change() == pytest.approx(50.0)


def test_total_update_count():
    dtdg = DTDG([_snap((0, 1)), _snap((1, 2)), _snap((1, 2), (2, 0))], 3)
    assert dtdg.total_update_count() == 2 + 1


def test_empty_dtdg_rejected():
    with pytest.raises(ValueError):
        DTDG([], 5)


def test_append_update_refuses_unequal_lengths():
    """``add_src=[0, 1], add_dst=[2]`` must not broadcast into the edge
    ``(1, 2)`` that nobody sent: the batch is refused, nothing appended."""
    dtdg = DTDG([_snap((0, 1))], 3)
    empty = np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError, match="equal length"):
        dtdg.append_update(EdgeUpdate(np.array([0, 1]), np.array([2]), empty, empty))
    assert dtdg.num_timestamps == 1


def test_identical_snapshots_no_updates():
    dtdg = DTDG([_snap((0, 1)), _snap((0, 1))], 2)
    assert dtdg.updates[1].num_changes == 0
    assert dtdg.percent_change(1) == 0.0


@given(seed=st.integers(0, 10**6), shape=st.sampled_from(["mixed", "redundant", "all-delete", "empty"]))
@settings(max_examples=80, deadline=None)
def test_append_update_matches_set_algebra(seed, shape):
    """The stored update and the new snapshot equal the set-algebra definition:
    ``add \\ prev``, ``delete & prev``, ``(prev \\ delete) | add``."""
    rng = np.random.default_rng(seed)
    n = 12
    m = int(rng.integers(0, 60))
    dtdg = DTDG([(rng.integers(0, n, m), rng.integers(0, n, m))], n)
    for _ in range(4):
        prev = dtdg._keys[-1]
        n_add, n_del = {"mixed": (20, 20), "redundant": (20, 20), "all-delete": (0, 30), "empty": (0, 0)}[shape]
        add = rng.integers(0, n * n, n_add)  # in-batch duplicates and already-present edges are likely
        delete = rng.integers(0, n * n, n_del)  # absent edges and overlaps with ``add`` too
        if shape == "redundant":
            add = rng.choice(prev, n_add) if len(prev) else prev
            delete = np.setdiff1d(np.arange(n * n), prev)[:n_del]
        t = dtdg.append_update(EdgeUpdate(add // n, add % n, delete // n, delete % n))
        want_add = np.setdiff1d(add, prev)
        want_del = np.intersect1d(delete, prev)
        assert t == dtdg.num_timestamps - 1
        np.testing.assert_array_equal(dtdg._keys[t], np.union1d(np.setdiff1d(prev, want_del), want_add))
        up = dtdg.updates[t]
        np.testing.assert_array_equal(encode_edges(up.add_src, up.add_dst, n), want_add)
        np.testing.assert_array_equal(encode_edges(up.del_src, up.del_dst, n), want_del)
        assert dtdg._keys[t].dtype == np.int64 and up.add_src.dtype == np.int64
        if shape in ("redundant", "empty"):
            assert up.num_changes == 0


@given(
    seed=st.integers(0, 10**6),
    kinds=st.lists(st.sampled_from(["fresh", "same", "empty"]), min_size=1, max_size=6),
    appends=st.lists(st.sampled_from(["mixed", "redundant", "empty"]), max_size=5),
)
@settings(max_examples=120, deadline=None)
def test_version_is_the_count_of_nonempty_batches(seed, kinds, appends):
    """``version_of`` is a function of the data: it counts the non-empty
    batches in ``1..t``, equal versions expose equal edge sets, and a live
    append (fully redundant ones included) renumbers nothing before it."""
    rng = np.random.default_rng(seed)
    n, snaps = 6, []
    for kind in kinds:  # no-op chains: "same" repeats, "empty" after "empty"
        m = 0 if kind == "empty" else int(rng.integers(1, 3 * n))
        snaps.append(snaps[-1] if kind == "same" and snaps else (rng.integers(0, n, m), rng.integers(0, n, m)))
    dtdg = DTDG(snaps, n)

    def check():
        T = dtdg.num_timestamps
        versions = [dtdg.version_of(t) for t in range(T)]
        assert versions == [sum(dtdg.updates[i].num_changes > 0 for i in range(1, t + 1)) for t in range(T)]
        for a in range(T):
            for b in range(a):
                if versions[a] == versions[b]:
                    np.testing.assert_array_equal(dtdg._keys[a], dtdg._keys[b])
        for t in (-1, T):
            with pytest.raises(IndexError):
                dtdg.version_of(t)
        return versions

    before = check()
    for shape in appends:
        prev = dtdg._keys[-1]
        add = rng.integers(0, n * n, 0 if shape == "empty" else 4)
        delete = rng.integers(0, n * n, 0 if shape == "empty" else 4)
        if shape == "redundant":
            add = rng.choice(prev, 4) if len(prev) else prev
            delete = np.setdiff1d(np.arange(n * n), prev)[:4]
        t = dtdg.append_update(EdgeUpdate(add // n, add % n, delete // n, delete % n))
        after = check()
        assert after[:t] == before
        assert after[t] == before[-1] + (not np.array_equal(dtdg._keys[t], prev))
        before = after
