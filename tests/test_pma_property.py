"""Property-based PMA testing against a set reference model."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.pma import PackedMemoryArray

_key = st.integers(0, 5000)
_batch = st.lists(_key, min_size=1, max_size=60)


@given(batches=st.lists(_batch, min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_inserts_match_dict_model(batches):
    pma = PackedMemoryArray()
    model: set[int] = set()
    for batch in batches:
        assert pma.insert_batch(np.array(batch, dtype=np.int64)) == len(set(batch) - model)
        model.update(batch)
        pma.check_invariants()
    assert pma.export_items().tolist() == sorted(model)


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["ins", "del"]), _batch),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=50, deadline=None)
def test_mixed_ops_match_dict_model(ops):
    pma = PackedMemoryArray()
    model: set[int] = set()
    for kind, batch in ops:
        keys = np.array(batch, dtype=np.int64)
        if kind == "ins":
            pma.insert_batch(keys)
            model.update(batch)
        else:
            pma.delete_batch(keys)
            model.difference_update(batch)
        pma.check_invariants()
        assert len(pma) == len(model)
    assert pma.export_items().tolist() == sorted(model)


@given(seed=st.integers(0, 10**6), n=st.integers(1, 3000))
@settings(max_examples=25, deadline=None)
def test_bulk_insert_then_full_drain(seed, n):
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, 10**7, n))
    pma = PackedMemoryArray()
    pma.insert_batch(keys)
    pma.check_invariants()
    assert len(pma) == len(keys)
    pma.delete_batch(keys)
    pma.check_invariants()
    assert len(pma) == 0


@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_density_within_root_bounds_after_batches(seed):
    rng = np.random.default_rng(seed)
    pma = PackedMemoryArray()
    for _ in range(6):
        keys = np.unique(rng.integers(0, 10**6, rng.integers(10, 400)))
        pma.insert_batch(keys)
    # Root density never exceeds tau_root after settling.
    assert pma.density <= pma.bounds.upper(pma.bounds.height) + 1e-9


@given(seed=st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_contains_batch_agrees_with_get(seed):
    """``contains_batch`` against the set model and the one-key ``contains``."""
    rng = np.random.default_rng(seed)
    present = np.unique(rng.integers(0, 1000, 100))
    pma = PackedMemoryArray()
    pma.insert_batch(present)
    model = set(present.tolist())
    queries = rng.integers(0, 1200, 200)
    mask = pma.contains_batch(queries)
    for q, m in zip(queries.tolist(), mask.tolist()):
        assert m == (q in model) == pma.contains(q)
