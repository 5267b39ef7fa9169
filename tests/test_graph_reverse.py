"""Algorithm 3: reverse-CSR construction (literal and vectorized)."""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import (
    StaticGraph,
    reverse_csr_arrays,
    reverse_gpma_literal,
    reverse_gpma_vectorized,
)
from repro.pma.pma import SPACE_KEY


def _compact_inputs(src, dst, n):
    """Compact (gap-free) CSR keyed on src, labels = positions."""
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    row = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=row[1:])
    eids = np.arange(len(src), dtype=np.int64)
    return row, dst.astype(np.int64), eids


def _as_sets(row, col, eid, n):
    return [
        set(zip(col[row[v] : row[v + 1]].tolist(), eid[row[v] : row[v + 1]].tolist()))
        for v in range(n)
    ]


def test_reverse_small_example():
    # edges: 0->1, 0->2, 1->2
    row = np.array([0, 2, 3, 3])
    col = np.array([1, 2, 2])
    eid = np.array([0, 1, 2])
    r_row, r_col, r_eid = reverse_csr_arrays(row, col, eid, 3)
    assert r_row.tolist() == [0, 0, 1, 3]
    assert _as_sets(r_row, r_col, r_eid, 3) == [set(), {(0, 0)}, {(0, 1), (1, 2)}]


def test_reverse_empty_graph():
    r_row, r_col, r_eid = reverse_csr_arrays(np.zeros(5, dtype=np.int64), np.array([], dtype=np.int64), np.array([], dtype=np.int64), 4)
    assert r_row.tolist() == [0, 0, 0, 0, 0]
    assert r_col.size == 0


def test_literal_matches_vectorized_random(rng):
    n = 40
    g = nx.gnp_random_graph(n, 0.15, seed=7, directed=True)
    edges = np.array(list(g.edges()), dtype=np.int64)
    row, col, eid = _compact_inputs(edges[:, 0], edges[:, 1], n)
    in_deg = np.bincount(col, minlength=n)
    r1 = reverse_gpma_literal(row, col, eid, in_deg)
    r2 = reverse_gpma_vectorized(row, col, eid, n)
    assert np.array_equal(r1[0], r2[0])
    assert _as_sets(*r1, n) == _as_sets(*r2, n)


def test_literal_order_independent(rng):
    """The atomic-decrement discipline makes the result independent of
    thread scheduling: any node_order gives the same set per reverse row."""
    n = 30
    g = nx.gnp_random_graph(n, 0.2, seed=3, directed=True)
    edges = np.array(list(g.edges()), dtype=np.int64)
    row, col, eid = _compact_inputs(edges[:, 0], edges[:, 1], n)
    in_deg = np.bincount(col, minlength=n)
    base = reverse_gpma_literal(row, col, eid, in_deg)
    for _ in range(5):
        other = reverse_gpma_literal(row, col, eid, in_deg, node_order=rng.permutation(n))
        assert np.array_equal(base[0], other[0])
        assert _as_sets(*base, n) == _as_sets(*other, n)


def test_gapped_input_skips_spaces():
    """SPACE slots inside windows must be ignored (the Alg. 3 line-10 check)."""
    # node 0 window has a gap; edges 0->1 (eid 0), 1->0 (eid 1)
    row = np.array([0, 3, 5])
    col = np.array([1, SPACE_KEY, SPACE_KEY, 0, SPACE_KEY])
    eid = np.array([0, -1, -1, 1, -1])
    r_row, r_col, r_eid = reverse_gpma_vectorized(row, col, eid, 2)
    assert r_row.tolist() == [0, 1, 2]
    assert (r_col[0], r_eid[0]) == (1, 1)  # 0's in-edge comes from 1
    assert (r_col[1], r_eid[1]) == (0, 0)
    lit = reverse_gpma_literal(row, col, eid, np.array([1, 1]))
    assert np.array_equal(lit[0], r_row)
    assert _as_sets(*lit, 2) == _as_sets(r_row, r_col, r_eid, 2)


def test_reverse_of_reverse_is_identity(rng):
    n = 25
    g = nx.gnp_random_graph(n, 0.2, seed=11, directed=True)
    edges = np.array(list(g.edges()), dtype=np.int64)
    row, col, eid = _compact_inputs(edges[:, 0], edges[:, 1], n)
    r = reverse_gpma_vectorized(row, col, eid, n)
    rr = reverse_gpma_vectorized(*r, n)
    assert np.array_equal(rr[0], row)
    assert _as_sets(*rr, n) == _as_sets(row, col, eid, n)


def test_reverse_matches_networkx_predecessors():
    n = 35
    g = nx.gnp_random_graph(n, 0.18, seed=23, directed=True)
    sg = StaticGraph.from_networkx(g)
    fwd = sg.forward_csr()
    for v in range(n):
        assert sorted(fwd.neighbors(v).tolist()) == sorted(g.predecessors(v))


@given(seed=st.integers(0, 10**6), n=st.integers(2, 30), p=st.floats(0.05, 0.5))
@settings(max_examples=30, deadline=None)
def test_reverse_preserves_edge_multiset(seed, n, p):
    g = nx.gnp_random_graph(n, p, seed=seed, directed=True)
    edges = np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2)
    row, col, eid = _compact_inputs(edges[:, 0], edges[:, 1], n)
    r_row, r_col, r_eid = reverse_gpma_vectorized(row, col, eid, n)
    # every (u, v, label) appears exactly once flipped
    fwd_edges = set()
    for u in range(n):
        for v, l in zip(col[row[u] : row[u + 1]], eid[row[u] : row[u + 1]]):
            fwd_edges.add((int(u), int(v), int(l)))
    rev_edges = set()
    for v in range(n):
        for u, l in zip(r_col[r_row[v] : r_row[v + 1]], r_eid[r_row[v] : r_row[v + 1]]):
            rev_edges.add((int(u), int(v), int(l)))
    assert fwd_edges == rev_edges


# ---------------------------------------------------------------------------
# Differential: the counting-sort transpose == the argsort it replaced
# ---------------------------------------------------------------------------
def _reverse_by_argsort(row, col, eid, n):
    """The comparison-sort formulation ``reverse_gpma_vectorized`` used to be."""
    covered = int(row[-1])
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(row))
    valid = col[:covered] != SPACE_KEY
    src, dst, lab = rows[valid], col[:covered][valid], eid[:covered][valid]
    order = np.argsort(dst, kind="stable")
    r_row = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n), out=r_row[1:])
    return r_row, src[order], lab[order]


@st.composite
def _digraph_csrs(draw):
    """``(row, col, eid, n)``: a CSR keyed on src with position labels, compact
    or gapped (SPACE slots inside the windows, unowned slack after them)."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["random", "empty", "one_sink", "self_loops", "few_vertices"]))
    e = 0 if shape == "empty" else draw(st.integers(0, 4 * n))
    src = rng.integers(0, n, e)
    dst = rng.integers(0, n, e)
    if shape == "one_sink":
        dst = np.full(e, rng.integers(0, n))
    elif shape == "self_loops":
        dst = np.where(rng.random(e) < 0.5, src, dst)
    elif shape == "few_vertices":  # everything else is isolated
        live = rng.choice(n, size=max(1, n // 4), replace=False)
        src, dst = live[src % len(live)], live[dst % len(live)]
    row, col, eid = _compact_inputs(src.astype(np.int64), dst.astype(np.int64), n)
    if not draw(st.booleans()):
        return row, col, eid, n
    # Spread each row's entries over a wider window, keeping their order.
    gaps = rng.integers(0, 3, n)
    g_row = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.diff(row) + gaps, out=g_row[1:])
    slack = int(rng.integers(0, 5))
    g_col = np.full(int(g_row[-1]) + slack, SPACE_KEY, dtype=np.int64)
    g_eid = np.full(len(g_col), -1, dtype=np.int64)
    for v in range(n):
        slots = np.sort(rng.choice(np.arange(g_row[v], g_row[v + 1]), size=row[v + 1] - row[v], replace=False))
        g_col[slots] = col[row[v] : row[v + 1]]
        g_eid[slots] = eid[row[v] : row[v + 1]]
    return g_row, g_col, g_eid, n


@given(_digraph_csrs())
@settings(max_examples=200, deadline=None)
def test_counting_sort_transpose_equals_argsort_bitwise(case):
    row, col, eid, n = case
    got = reverse_gpma_vectorized(row, col, eid, n)
    want = _reverse_by_argsort(row, col, eid, n)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and g.flags.c_contiguous
        assert np.array_equal(g, w)


@given(_digraph_csrs(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_counting_sort_transpose_equals_literal_any_schedule(case, seed):
    """Algorithm 3 as written, run in a shuffled node order, yields the same
    reverse lists once each is sorted by label (labels are unique)."""
    row, col, eid, n = case
    r_row, r_col, r_eid = reverse_gpma_vectorized(row, col, eid, n)
    valid = col[: row[-1]] != SPACE_KEY
    in_deg = np.bincount(col[: row[-1]][valid], minlength=n)
    l_row, l_col, l_eid = reverse_gpma_literal(
        row, col, eid, in_deg, node_order=np.random.default_rng(seed).permutation(n)
    )
    assert np.array_equal(l_row, r_row)
    for v in range(n):
        lo, hi = r_row[v], r_row[v + 1]
        by_label = np.argsort(l_eid[lo:hi])
        assert np.array_equal(l_eid[lo:hi][by_label], r_eid[lo:hi])  # already ascending
        assert np.array_equal(l_col[lo:hi][by_label], r_col[lo:hi])
