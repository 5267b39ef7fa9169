"""Metrics and link-prediction sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.train.tasks as tasks
from repro.dataset import load_sx_mathoverflow
from repro.graph import DTDG
from repro.graph.labels import encode_edges, positions_in
from repro.train import make_link_prediction_samples
from repro.train.metrics import accuracy_from_logits, mae, rmse, roc_auc


def test_mae_rmse():
    pred = np.array([1.0, 2.0, 3.0])
    target = np.array([1.0, 0.0, 7.0])
    assert mae(pred, target) == pytest.approx(2.0)
    assert rmse(pred, target) == pytest.approx(np.sqrt((0 + 4 + 16) / 3))


def test_roc_auc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert roc_auc(scores, labels) == pytest.approx(1.0)


def test_roc_auc_inverted():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([1, 1, 0, 0])
    assert roc_auc(scores, labels) == pytest.approx(0.0)


def test_roc_auc_random_is_half(rng):
    scores = rng.random(4000)
    labels = (rng.random(4000) > 0.5).astype(float)
    assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.05)


def test_roc_auc_handles_ties():
    scores = np.array([0.5, 0.5, 0.5, 0.5])
    labels = np.array([1, 0, 1, 0])
    assert roc_auc(scores, labels) == pytest.approx(0.5)


def test_roc_auc_degenerate_classes():
    assert np.isnan(roc_auc(np.array([0.1, 0.2]), np.array([1, 1])))


def test_accuracy_from_logits():
    logits = np.array([2.0, -1.0, 0.5, -0.5])
    labels = np.array([1, 0, 0, 0])
    assert accuracy_from_logits(logits, labels) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Link-prediction sampling
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def ds():
    return load_sx_mathoverflow(scale=0.01, max_snapshots=5)


def test_samples_per_timestamp(ds):
    samples = make_link_prediction_samples(ds.dtdg, samples_per_timestamp=100, seed=0)
    assert len(samples) == ds.num_timestamps
    for s in samples:
        assert s.pairs.shape[0] == 2
        assert s.pairs.shape[1] == len(s.labels)
        assert set(np.unique(s.labels)) <= {0.0, 1.0}


def test_samples_balanced(ds):
    samples = make_link_prediction_samples(ds.dtdg, samples_per_timestamp=100, seed=0)
    for s in samples:
        pos = int(s.labels.sum())
        neg = len(s.labels) - pos
        assert pos == neg


def test_positives_are_real_edges(ds):
    samples = make_link_prediction_samples(ds.dtdg, samples_per_timestamp=64, seed=1)
    for t, s in enumerate(samples):
        src, dst = ds.dtdg.snapshot_edges(t)
        edge_keys = set(encode_edges(src, dst, ds.num_nodes).tolist())
        pos = s.pairs[:, s.labels > 0.5]
        keys = encode_edges(pos[0], pos[1], ds.num_nodes)
        assert all(k in edge_keys for k in keys.tolist())


def test_negatives_are_non_edges(ds):
    samples = make_link_prediction_samples(ds.dtdg, samples_per_timestamp=64, seed=1)
    for t, s in enumerate(samples):
        src, dst = ds.dtdg.snapshot_edges(t)
        edge_keys = set(encode_edges(src, dst, ds.num_nodes).tolist())
        neg = s.pairs[:, s.labels < 0.5]
        keys = encode_edges(neg[0], neg[1], ds.num_nodes)
        assert not any(k in edge_keys for k in keys.tolist())
        assert np.all(neg[0] != neg[1])


def test_samples_deterministic(ds):
    a = make_link_prediction_samples(ds.dtdg, 64, seed=5)
    b = make_link_prediction_samples(ds.dtdg, 64, seed=5)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.pairs, sb.pairs)


def test_snapshot_without_a_non_edge_raises_naming_t():
    """Every ordered pair of distinct vertices an edge (self-loops aside): no
    negative exists, so the sampler raises instead of looping forever."""
    complete = ([0, 1, 1, 2, 0, 2, 1], [1, 0, 2, 1, 2, 0, 1])  # (1, 1) is a self-loop
    dtdg = DTDG([([0], [1]), complete], 3)
    with pytest.raises(ValueError, match="timestamp 1"):
        make_link_prediction_samples(dtdg, 4, seed=0)
    with pytest.raises(ValueError, match="timestamp 0: snapshot 1"):
        make_link_prediction_samples(dtdg, 4, seed=0, horizon=1)
    with pytest.raises(ValueError, match="timestamp 0"):
        make_link_prediction_samples(DTDG([([0, 1], [1, 0])], 2), 4, seed=0)


def test_one_missing_pair_is_every_negative():
    """One non-edge left: the check does not fire and the sampler finds it."""
    (samples,) = make_link_prediction_samples(DTDG([([0, 1, 2, 0, 2], [1, 0, 1, 2, 0])], 3), 6, seed=0)
    assert samples.pairs[:, samples.labels == 0].T.tolist() == [[1, 2]] * 3


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    sizes=st.lists(st.integers(0, 60), min_size=1, max_size=4),
    horizon=st.integers(0, 5),
    per_t=st.integers(2, 16),
)
@settings(max_examples=100, deadline=None)
def test_binary_search_mask_equals_isin(seed, n, sizes, horizon, per_t):
    """The sampler's negative filter is a binary search over the snapshot's
    sorted keys; with ``np.isin`` in its place every pair and label is the same."""
    rng = np.random.default_rng(seed)
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    snaps = []
    for size in sizes:  # strictly fewer edges than ordered pairs, so a negative always exists
        chosen = rng.choice(len(pairs), size=min(size, len(pairs) - 1), replace=False)
        edges = np.array([pairs[i] for i in chosen], dtype=np.int64).reshape(-1, 2)
        snaps.append((edges[:, 0], edges[:, 1]))
    dtdg = DTDG(snaps, n)
    got = make_link_prediction_samples(dtdg, per_t, seed=seed, horizon=horizon)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tasks, "positions_in", lambda sorted_keys, keys: (None, np.isin(keys, sorted_keys)))
        want = make_link_prediction_samples(dtdg, per_t, seed=seed, horizon=horizon)
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a.pairs, b.pairs)
        np.testing.assert_array_equal(a.labels, b.labels)
    sorted_keys = np.unique(rng.integers(0, n * n, 2 * n))
    keys = rng.integers(-1, n * n + 1, 3 * n)
    np.testing.assert_array_equal(positions_in(sorted_keys, keys)[1], np.isin(keys, sorted_keys))
    np.testing.assert_array_equal(positions_in(sorted_keys[:0], keys)[1], np.zeros(len(keys), bool))

