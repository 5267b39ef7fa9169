"""Kernel runtime: graph context + the primitives generated kernels call.

On real hardware these are the bodies of Seastar's generated CUDA kernels;
here they are vectorized NumPy/SciPy routines sharing the key property of
the vertex-centric design: **feature payloads stay in node space** — the
SpMM streams over CSR without materializing an ``E×F`` message tensor, so
peak memory is ``O(N·F + E)`` instead of the edge-parallel ``O(E·F)``.

:class:`GraphContext` snapshots one graph's structural arrays (both CSR
orientations, shared labels, degrees, degree-ordered node ids) for the
kernels.  The forward-CSR *position order* is the canonical edge order for
all edge-space buffers; label-indexed edge features are converted at bind
time and the backward SpMM permutes weights into backward-CSR order through
the shared labels — the concrete payoff of the paper's edge-labelling
requirement.

What ``spmm`` multiplies by is structure too: a context keeps, per
direction, one :class:`_AggregationOperator` (the CSR with its rows already
in ``node_ids`` order when the graph is degree-ordered), built by the first
launch that asks for it.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.graph.base import STGraphBase
from repro.graph.csr import CSR
from repro.tensor.ops import stable_sigmoid

__all__ = ["GraphContext", "RUNTIME_NAMESPACE"]


class GraphContext:
    """Structural arrays of one snapshot, prepared for kernel launches.

    ``snapshot_key`` records the graph's content identity (its snapshot
    version) at build time — the executor's context cache uses it to decide
    when a context built for one pass (e.g. forward at ``t``) is valid for
    another (the LIFO backward step at the same ``t``).  ``sort_by_degree``
    records the graph's degree-order switch the same way: the one switch is
    the graph's, and a context built from it launches in that order.
    """

    def __init__(self, graph: STGraphBase) -> None:
        fwd: CSR = graph.forward_csr()
        bwd: CSR = graph.backward_csr()
        self.snapshot_key = graph.snapshot_key()
        self.num_nodes = graph.num_nodes
        self.num_edges = fwd.num_edges
        self.fwd_row = fwd.row_offset
        self.fwd_col = fwd.col_indices  # source vertex per in-edge
        self.fwd_eids = fwd.eids
        self.bwd_row = bwd.row_offset
        self.bwd_col = bwd.col_indices  # destination vertex per out-edge
        self.bwd_eids = bwd.eids
        self.in_deg = np.asarray(graph.in_degrees())
        self.out_deg = np.asarray(graph.out_degrees())
        self.fwd_node_ids = fwd.node_ids
        self.bwd_node_ids = bwd.node_ids
        self.sort_by_degree = graph.sort_by_degree
        self._operators: dict[str, _AggregationOperator] = {}

    # Edge-length maps no unweighted launch reads: built by the first
    # gather_dst / edge-softmax / weighted launch that asks.
    @cached_property
    def dst_per_edge(self) -> np.ndarray:
        """Destination vertex of each edge, in canonical (fwd) order."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.fwd_row))

    @cached_property
    def label_to_fwd(self) -> np.ndarray:
        """Edge label -> forward (canonical) position."""
        label_to_fwd = np.empty(self.num_edges, dtype=np.int64)
        label_to_fwd[self.fwd_eids] = np.arange(self.num_edges, dtype=np.int64)
        return label_to_fwd

    @cached_property
    def bwd_to_fwd(self) -> np.ndarray:
        """Backward-CSR position -> forward (canonical) position."""
        return self.label_to_fwd[self.bwd_eids]

    @cached_property
    def in_deg_clamped(self) -> np.ndarray:
        """In-degree clamped to >= 1, float32 (mean-aggregation denominator)."""
        return np.maximum(self.in_deg, 1).astype(np.float32)

    def operator(self, direction: str) -> "_AggregationOperator":
        """The launch-order CSR operator of one direction, built on first use."""
        op = self._operators.get(direction)
        if op is None:
            op = self._operators[direction] = _AggregationOperator(self, direction)
        return op

    def bind_edge_feature(self, label_indexed: np.ndarray) -> np.ndarray:
        """Convert a label-indexed edge array to canonical (fwd) order."""
        return label_indexed[self.fwd_eids]

    def edge_grad_to_labels(self, grad_fwd_order: np.ndarray) -> np.ndarray:
        """Convert a canonical-order edge gradient back to label order."""
        out = np.empty_like(grad_fwd_order)
        out[self.fwd_eids] = grad_fwd_order
        return out


class _AggregationOperator:
    """One CSR orientation in launch order, shared by every ``spmm`` of a
    context: ``"in"`` is the forward CSR (rows = destinations), ``"out"`` the
    backward one.  With degree ordering its rows are stored in ``node_ids``
    order (Figure 3) and ``inverse`` (the inverse permutation of ``order``)
    gathers a product back to vertex order; without, both are ``None``.
    ``mat`` is the unweighted matrix; SciPy keeps its indices as int32 where
    they fit, so a launch copies nothing.
    """

    def __init__(self, ctx: GraphContext, direction: str) -> None:
        if direction == "in":
            row, col, order, owner = ctx.fwd_row, ctx.fwd_col, ctx.fwd_node_ids, None
        else:
            # bwd_to_fwd is read through the owning context (weakly: the
            # context holds this operator) and only by a weighted launch.
            row, col, order, owner = ctx.bwd_row, ctx.bwd_col, ctx.bwd_node_ids, weakref.ref(ctx)
        n, ones = ctx.num_nodes, np.ones(ctx.num_edges, dtype=np.float32)
        mat = sp.csr_matrix((ones, col, row), shape=(n, n))
        self.order = order if ctx.sort_by_degree else None
        self.mat = mat if self.order is None else mat[self.order]
        self.inverse = None
        if self.order is not None:
            self.inverse = np.empty_like(self.order)
            self.inverse[self.order] = np.arange(n)
        self._src = (row, col, owner)

    @cached_property
    def _pos(self) -> np.ndarray | None:
        """Canonical (fwd-order) position of each stored nonzero, ``None`` for
        identity.  Under a row permutation it costs ``E*8`` bytes, so it waits
        for the first weighted launch."""
        row, col, owner = self._src
        to_fwd = None if owner is None else owner().bwd_to_fwd
        if self.order is None:
            return to_fwd
        pos = np.arange(len(col)) if to_fwd is None else to_fwd
        return sp.csr_matrix((pos, col, row), shape=self.mat.shape)[self.order].data

    def matrix(self, w: np.ndarray | None) -> sp.csr_matrix:
        """``mat`` itself, or a matrix over its structure carrying ``w``
        (canonical edge order) as float32 data."""
        if w is None:
            return self.mat
        data = (w if self._pos is None else w[self._pos]).astype(np.float32, copy=False)
        mat = self.mat
        return sp.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape, copy=False)


# ---------------------------------------------------------------------------
# Primitives called by generated kernels
# ---------------------------------------------------------------------------
def _align(a, b):
    """Broadcast a (N,) operand against a (N, F) one column-wise."""
    a_nd = getattr(a, "ndim", 0)
    b_nd = getattr(b, "ndim", 0)
    if a_nd == 1 and b_nd == 2:
        return a[:, None], b
    if a_nd == 2 and b_nd == 1:
        return a, b[:, None]
    return a, b


def ew_add(a, b):
    """Broadcasting add (scalar-width operands align column-wise)."""
    a, b = _align(a, b)
    return a + b


def ew_sub(a, b):
    """Broadcasting subtract."""
    a, b = _align(a, b)
    return a - b


def ew_mul(a, b):
    """Broadcasting multiply."""
    a, b = _align(a, b)
    return a * b


def ew_div(a, b):
    """Broadcasting divide."""
    a, b = _align(a, b)
    return a / b


def ew_neg(a):
    """Negate."""
    return -a


def ew_exp(a):
    """Exponential."""
    return np.exp(a)


def ew_log(a):
    """Natural log."""
    return np.log(a)


def ew_tanh(a):
    """Hyperbolic tangent."""
    return np.tanh(a)


def ew_sigmoid(a):
    """Numerically stable sigmoid (the tape op's own arithmetic)."""
    return stable_sigmoid(a)


def ew_relu(a):
    """ReLU."""
    return np.maximum(a, 0.0)


def ew_leaky_relu(a, slope=0.01):
    """Leaky ReLU."""
    return np.where(a > 0, a, slope * a)


def ew_recip(a):
    """Reciprocal."""
    return 1.0 / a


def spmm(ctx: GraphContext, w, x, direction: str = "in"):
    """``out[v] = Σ_{e∈in(v)} w[e]·x[src[e]]`` without E×F materialization
    (``direction="out"`` aggregates over out-edges instead:
    ``out[u] = Σ_{e∈out(u)} w[e]·x[dst[e]]``).

    The structure comes from the context's cached operator.  When degree
    ordering is enabled its rows are in descending degree order (the paper's
    node_ids mechanism, Figure 3) and the result is gathered back to vertex
    order.
    """
    op = ctx.operator(direction)
    out_perm = op.matrix(w) @ x.astype(np.float32, copy=False)
    if op.inverse is None:
        return out_perm
    return out_perm.take(op.inverse, axis=0)


def spmm_T(ctx: GraphContext, w, g, direction: str = "in"):
    """Payload gradient of :func:`spmm`: the transpose product.

    ``direction`` names the *forward* direction being differentiated, so
    the adjoint of an in-aggregation runs over the backward CSR
    (out-neighbors) — which is exactly why the graph abstraction maintains
    both orientations with shared edge labels — and vice versa."""
    return spmm(ctx, w, g, direction="out" if direction == "in" else "in")


def segment_sum(ctx: GraphContext, w):
    """Sum edge scalars per destination vertex (safe for empty rows)."""
    cs = np.concatenate([[0.0], np.cumsum(w, dtype=np.float64)])
    return (cs[ctx.fwd_row[1:]] - cs[ctx.fwd_row[:-1]]).astype(np.float32)


def segment_sum_dst(ctx: GraphContext, g):
    """Alias of :func:`segment_sum` (gradient of gather_dst)."""
    return segment_sum(ctx, g)


def scatter_src(ctx: GraphContext, g):
    """Sum edge scalars per source vertex (gradient of gather_src)."""
    return np.bincount(ctx.fwd_col, weights=g, minlength=ctx.num_nodes).astype(np.float32)


def gather_src(ctx: GraphContext, x):
    """Replicate a node value per edge from its source."""
    return x[ctx.fwd_col]


def gather_dst(ctx: GraphContext, x):
    """Replicate a node value per edge from its destination."""
    return x[ctx.dst_per_edge]


def segment_max(ctx: GraphContext, z):
    """Max of edge scalars per destination (−inf for isolated vertices)."""
    out = np.full(ctx.num_nodes, -np.inf, dtype=np.float32)
    np.maximum.at(out, ctx.dst_per_edge, z)
    return out


def edge_softmax(ctx: GraphContext, z):
    """Numerically stable softmax of edge scores over each in-edge group."""
    m = segment_max(ctx, z)
    shifted = z - m[ctx.dst_per_edge]
    e = np.exp(shifted)
    denom = segment_sum(ctx, e)
    return (e / denom[ctx.dst_per_edge]).astype(np.float32)


def edge_softmax_bwd(ctx: GraphContext, alpha, g):
    """VJP of :func:`edge_softmax` within each in-edge group."""
    s = segment_sum(ctx, alpha * g)
    return alpha * (g - s[ctx.dst_per_edge])


def edge_dot(ctx: GraphContext, x, g, direction: str = "in"):
    """Per-edge feature dot (gradient of spmm weights): ⟨x[src], g[dst]⟩
    for in-aggregation, ⟨x[dst], g[src]⟩ for out-aggregation."""
    a_idx, b_idx = (ctx.fwd_col, ctx.dst_per_edge) if direction == "in" else (ctx.dst_per_edge, ctx.fwd_col)
    if x.ndim == 1:
        return x[a_idx] * g[b_idx]
    return np.einsum("ef,ef->e", x[a_idx], g[b_idx]).astype(np.float32)


def agg_max(ctx: GraphContext, x):
    """Max-aggregate a node payload over in-edges (0 for isolated nodes)."""
    gathered = x[ctx.fwd_col]
    if gathered.ndim == 1:
        out = np.full(ctx.num_nodes, -np.inf, dtype=np.float32)
        np.maximum.at(out, ctx.dst_per_edge, gathered)
        out[ctx.in_deg == 0] = 0.0
        return out
    out = np.full((ctx.num_nodes, gathered.shape[1]), -np.inf, dtype=np.float32)
    np.maximum.at(out, ctx.dst_per_edge, gathered)
    out[ctx.in_deg == 0] = 0.0
    return out


def agg_max_bwd(ctx: GraphContext, x, out_fwd, g):
    """Route max-agg gradients to the (tie-split) argmax sources."""
    gathered = x[ctx.fwd_col]
    winner = gathered == out_fwd[ctx.dst_per_edge]
    if gathered.ndim == 1:
        counts = np.bincount(ctx.dst_per_edge, weights=winner, minlength=ctx.num_nodes)
        share = winner / np.maximum(counts, 1)[ctx.dst_per_edge]
        contrib = share * g[ctx.dst_per_edge]
        return np.bincount(ctx.fwd_col, weights=contrib, minlength=ctx.num_nodes).astype(np.float32)
    counts = np.zeros((ctx.num_nodes, gathered.shape[1]), dtype=np.float32)
    np.add.at(counts, ctx.dst_per_edge, winner.astype(np.float32))
    share = winner / np.maximum(counts, 1)[ctx.dst_per_edge]
    contrib = share * g[ctx.dst_per_edge]
    grad = np.zeros_like(x, dtype=np.float32)
    np.add.at(grad, ctx.fwd_col, contrib)
    return grad


def ones_node(ctx: GraphContext):
    """All-ones per-vertex vector."""
    return np.ones(ctx.num_nodes, dtype=np.float32)


def in_deg(ctx: GraphContext):
    """In-degree per vertex as float32."""
    return ctx.in_deg.astype(np.float32)


def in_deg_clamped(ctx: GraphContext):
    """In-degree clamped to >= 1 (mean-aggregation denominator)."""
    return ctx.in_deg_clamped


def out_deg(ctx: GraphContext):
    """Out-degree per vertex as float32."""
    return ctx.out_deg.astype(np.float32)


def out_deg_clamped(ctx: GraphContext):
    """Out-degree clamped to >= 1."""
    return np.maximum(ctx.out_deg, 1).astype(np.float32)


def colsum(a):
    """Static broadcast adjoint: reduce an (N, F) grad to a scalar-width
    (N,) operand."""
    return a.sum(axis=1) if a.ndim == 2 else a


def relu_mask(out):
    """1 where the (saved) output is positive, else 0."""
    return (out > 0).astype(np.float32)


def leaky_mask(x, slope=0.01):
    """1 for positive inputs, ``slope`` otherwise."""
    return np.where(x > 0, np.float32(1.0), np.float32(slope))


#: globals handed to generated kernel modules
RUNTIME_NAMESPACE = {
    "np": np,
    "ew_add": ew_add,
    "ew_sub": ew_sub,
    "ew_mul": ew_mul,
    "ew_div": ew_div,
    "ew_neg": ew_neg,
    "ew_exp": ew_exp,
    "ew_log": ew_log,
    "ew_tanh": ew_tanh,
    "ew_sigmoid": ew_sigmoid,
    "ew_relu": ew_relu,
    "ew_leaky_relu": ew_leaky_relu,
    "ew_recip": ew_recip,
    "spmm": spmm,
    "spmm_T": spmm_T,
    "segment_sum": segment_sum,
    "segment_sum_dst": segment_sum_dst,
    "scatter_src": scatter_src,
    "gather_src": gather_src,
    "gather_dst": gather_dst,
    "segment_max": segment_max,
    "edge_softmax": edge_softmax,
    "edge_softmax_bwd": edge_softmax_bwd,
    "edge_dot": edge_dot,
    "agg_max": agg_max,
    "agg_max_bwd": agg_max_bwd,
    "ones_node": ones_node,
    "in_deg": in_deg,
    "in_deg_clamped": in_deg_clamped,
    "out_deg": out_deg,
    "out_deg_clamped": out_deg_clamped,
    "colsum": colsum,
    "relu_mask": relu_mask,
    "leaky_mask": leaky_mask,
}
