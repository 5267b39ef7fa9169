"""Lowering: vertex IR → tensor IR.

The heart of the vertex-centric compilation.  Aggregation bodies are
normalized to a **sum of products** and each term is split by stage:

* source-stage factors  → the *payload*, computed entirely in node space;
* edge-stage factors    → per-edge scalar *weights* (attention scores,
  edge features);
* destination-stage factors → hoisted out of the aggregation
  (``Σ_e d·s_e = d·Σ_e s_e``);
* constants             → folded into the coefficient.

A term then lowers to ``spmm(weights, payload)`` — the node-space streaming
product that never materializes an ``E×F`` message tensor.  Terms add up by
linearity; ``mean`` divides by clamped in-degree; ``max`` lowers to the
dedicated max-aggregation op.

Widths are inferred statically ('s' = per-vertex scalar ``(N,)``,
'v' = per-vertex vector ``(N,F)``) so backward broadcasting is resolved at
compile time, and edge-stage computations are *verified* to be scalar —
a feature-wide per-edge value would be exactly the memory blow-up the
design avoids, so it is a compile error rather than a silent fallback.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.compiler.ir import Stage, VNode
from repro.compiler.symbols import TraceResult
from repro.compiler.tir import EW_BINARY, EW_UNARY, IMPLICIT_ONES, TOp, TProgram

__all__ = ["CompileError", "lower_trace"]


class CompileError(Exception):
    """A vertex program the compiler cannot (or refuses to) lower."""


@dataclass
class _Term:
    coef: float
    factors: list[VNode] = field(default_factory=list)


def _normalize(node: VNode) -> list[_Term]:
    """Expand an aggregation body into sum-of-products form."""
    if node.op == "add":
        return _normalize(node.args[0]) + _normalize(node.args[1])
    if node.op == "sub":
        neg = [_Term(-t.coef, t.factors) for t in _normalize(node.args[1])]
        return _normalize(node.args[0]) + neg
    if node.op == "neg":
        return [_Term(-t.coef, t.factors) for t in _normalize(node.args[0])]
    if node.op == "mul":
        left, right = _normalize(node.args[0]), _normalize(node.args[1])
        return [_Term(a.coef * b.coef, a.factors + b.factors) for a, b in itertools.product(left, right)]
    if node.op == "div":
        denom = node.args[1]
        if denom.op == "const":
            return [_Term(t.coef / denom.attrs["value"], t.factors) for t in _normalize(node.args[0])]
        recip = VNode.unary("recip", denom)
        return [_Term(t.coef, t.factors + [recip]) for t in _normalize(node.args[0])]
    if node.op == "const":
        return [_Term(node.attrs["value"])]
    return [_Term(1.0, [node])]


_UNARY_EVAL = {
    "neg": lambda x: -x,
    "exp": math.exp,
    "log": math.log,
    "tanh": math.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + math.exp(-x)),
    "relu": lambda x: max(x, 0.0),
    "leaky_relu": lambda x, slope=0.01: x if x > 0 else slope * x,
    "recip": lambda x: 1.0 / x,
}


class _Lowerer:
    def __init__(self, name: str, feature_widths: dict[str, str]) -> None:
        self.prog = TProgram(name)
        self.widths: dict[str, str] = {}  # buffer -> 's' | 'v'
        self.feature_widths = feature_widths
        self._memo: dict[int, str] = {}
        self._tmp = itertools.count()
        self._const_cache: dict[float, str] = {}

    # -- buffer helpers -------------------------------------------------
    def _fresh(self, prefix: str = "t") -> str:
        return f"{prefix}{next(self._tmp)}"

    def const_buf(self, value: float) -> str:
        buf = self._const_cache.get(value)
        if buf is None:
            buf = self._fresh("c")
            self.prog.consts[buf] = float(value)
            self.prog.spaces[buf] = "scalar"
            self.widths[buf] = "s"
            self._const_cache[value] = buf
        return buf

    def emit(self, kind: str, ins: tuple[str, ...], space: str, width: str, **attrs) -> str:
        out = self._fresh()
        self.prog.ops.append(TOp(kind, out, ins, attrs))
        self.prog.spaces[out] = space
        self.widths[out] = width
        return out

    def input_buf(self, node: VNode) -> str:
        if node.stage == Stage.EDGE:
            buf = f"e_{node.name}"
            kind = "edge"
            width = "s"
        else:
            buf = f"n_{node.name}"
            kind = "node"
            width = self.feature_widths.get(node.name, "v")
            if width not in ("s", "v"):
                raise CompileError(f"feature width for {node.name!r} must be 's' or 'v', got {width!r}")
        if buf not in self.prog.inputs:
            self.prog.inputs[buf] = (kind, node.name)
            self.prog.spaces[buf] = "edge" if kind == "edge" else "node"
            self.widths[buf] = width
        return buf

    # -- expression lowering ---------------------------------------------
    def lower_expr(self, node: VNode) -> str:
        cached = self._memo.get(id(node))
        if cached is not None:
            return cached
        buf = self._lower_expr_uncached(node)
        self._memo[id(node)] = buf
        return buf

    def _lower_expr_uncached(self, node: VNode) -> str:
        if node.op == "feat":
            return self.input_buf(node)
        if node.op == "const":
            return self.const_buf(node.attrs["value"])
        if node.op == "agg":
            return self.lower_agg(node)
        if node.op == "edge_softmax":
            body = self.to_edge_space(node.args[0])
            return self.emit("edge_softmax", (body,), "edge", "s")
        if node.op in EW_UNARY:
            arg = node.args[0]
            if arg.op == "const":
                fn = _UNARY_EVAL[node.op]
                args = (arg.attrs["value"],)
                if node.op == "leaky_relu":
                    return self.const_buf(fn(arg.attrs["value"], node.attrs.get("slope", 0.01)))
                return self.const_buf(fn(*args))
            if node.stage == Stage.EDGE:
                a = self.to_edge_space(arg)
                return self.emit("ew", (a,), "edge", "s", op=node.op, **node.attrs)
            a = self.lower_expr(arg)
            return self.emit("ew", (a,), self.prog.spaces[a], self.widths[a], op=node.op, **node.attrs)
        if node.op in EW_BINARY:
            if node.stage == Stage.EDGE:
                a = self.to_edge_space(node.args[0])
                b = self.to_edge_space(node.args[1])
                return self.emit("ew", (a, b), "edge", "s", op=node.op)
            a = self.lower_expr(node.args[0])
            b = self.lower_expr(node.args[1])
            width = "v" if "v" in (self.widths[a], self.widths[b]) else "s"
            space = "node" if "node" in (self.prog.spaces[a], self.prog.spaces[b]) else "scalar"
            return self.emit("ew", (a, b), space, width, op=node.op)
        raise CompileError(f"cannot lower op {node.op!r}")

    def to_edge_space(self, node: VNode) -> str:
        """Lower and coerce a value into per-edge scalar space."""
        if node.stage == Stage.EDGE or node.op == "edge_softmax":
            return self.lower_expr(node)
        buf = self.lower_expr(node)
        if self.prog.spaces[buf] == "edge":
            return buf
        if self.prog.spaces[buf] == "scalar":
            return buf  # runtime broadcasts python floats
        if self.widths[buf] != "s":
            raise CompileError(
                "edge-stage computations must be per-vertex scalars; "
                f"got a vector-width value from {node.op!r}. Feature-wide "
                "per-edge values would materialize E×F memory — restructure "
                "the expression so features stay in the aggregation payload."
            )
        kind = "gather_src" if node.stage == Stage.SRC else "gather_dst"
        return self.emit(kind, (buf,), "edge", "s")

    # -- aggregation lowering ----------------------------------------------
    def lower_agg(self, node: VNode) -> str:
        agg_op = node.attrs["agg_op"]
        direction = node.attrs.get("direction", "in")
        terms = _normalize(node.args[0])
        if agg_op == "max":
            if direction != "in":
                raise CompileError("max aggregation over out-neighbors is not supported")
            return self._lower_agg_max(terms)
        term_bufs = [self._lower_sum_term(t, direction) for t in terms]
        total = term_bufs[0]
        for buf in term_bufs[1:]:
            width = "v" if "v" in (self.widths[total], self.widths[buf]) else "s"
            total = self.emit("ew", (total, buf), "node", width, op="add")
        if agg_op == "mean":
            deg_kind = "in_deg_clamped" if direction == "in" else "out_deg_clamped"
            deg = self.emit(deg_kind, (), "node", "s")
            total = self.emit("ew", (total, deg), "node", self.widths[total], op="div")
        return total

    def _split_factors(self, term: _Term) -> tuple[list[VNode], list[VNode], list[VNode], float]:
        src, dst, edge = [], [], []
        coef = term.coef
        for f in term.factors:
            if f.stage == Stage.SRC:
                src.append(f)
            elif f.stage == Stage.DST:
                dst.append(f)
            elif f.stage == Stage.EDGE:
                edge.append(f)
            else:  # CONST-stage factor (e.g. recip of a constant expression)
                buf = self.lower_expr(f)
                coef *= self.prog.consts[buf]
        return src, dst, edge, coef

    def _product(self, factors: list[VNode], to_edge: bool = False) -> str | None:
        if not factors:
            return None
        bufs = [self.to_edge_space(f) if to_edge else self.lower_expr(f) for f in factors]
        out = bufs[0]
        for buf in bufs[1:]:
            space = "edge" if to_edge else "node"
            width = "s" if to_edge else ("v" if "v" in (self.widths[out], self.widths[buf]) else "s")
            out = self.emit("ew", (out, buf), space, width, op="mul")
        return out

    def _lower_sum_term(self, term: _Term, direction: str = "in") -> str:
        src_f, dst_f, edge_f, coef = self._split_factors(term)
        if direction == "out":
            # Out-direction aggregation supports literal edge-feature
            # weights (the matrix builder permutes them through the shared
            # labels); *computed* edge scores would need out-edge-grouped
            # segment ops, which the design restricts to the in direction.
            for f in edge_f:
                if f.op != "feat":
                    raise CompileError(
                        "out-neighbor aggregation supports raw edge-feature "
                        "weights only; computed per-edge scores (softmax, "
                        "activations) are in-direction constructs"
                    )
        payload = self._product(src_f)
        weight = self._product(edge_f, to_edge=True)
        if coef != 1.0:
            cbuf = self.const_buf(coef)
            if weight is not None:
                weight = self.emit("ew", (weight, cbuf), "edge", "s", op="mul")
            elif payload is not None:
                payload = self.emit(
                    "ew", (payload, cbuf), "node", self.widths[payload], op="mul"
                )
        if payload is not None:
            w_in = weight if weight is not None else IMPLICIT_ONES
            result = self.emit(
                "spmm", (w_in, payload), "node", self.widths[payload], direction=direction
            )
        elif weight is not None:
            kind = "segment_sum" if direction == "in" else "scatter_src"
            result = self.emit(kind, (weight,), "node", "s")
        else:
            # Σ over edges of a bare constant: coef · degree.
            deg = self.emit("in_deg" if direction == "in" else "out_deg", (), "node", "s")
            cbuf = self.const_buf(coef)
            result = self.emit("ew", (deg, cbuf), "node", "s", op="mul")
        for f in dst_f:
            buf = self.lower_expr(f)
            width = "v" if "v" in (self.widths[result], self.widths[buf]) else "s"
            result = self.emit("ew", (result, buf), "node", width, op="mul")
        return result

    def _lower_agg_max(self, terms: list[_Term]) -> str:
        if len(terms) != 1:
            raise CompileError("max aggregation over a sum of terms is not supported")
        src_f, dst_f, edge_f, coef = self._split_factors(terms[0])
        if edge_f or dst_f:
            raise CompileError(
                "max aggregation supports a source-stage payload only "
                "(edge weights and destination factors have no max-linearity)"
            )
        payload = self._product(src_f)
        if payload is None:
            raise CompileError("max aggregation needs a neighbor-dependent payload")
        if coef != 1.0:
            cbuf = self.const_buf(coef)
            payload = self.emit("ew", (payload, cbuf), "node", self.widths[payload], op="mul")
        return self.emit("agg_max", (payload,), "node", self.widths[payload])


def lower_trace(
    traced: TraceResult,
    feature_widths: dict[str, str],
    name: str = "vertex_program",
) -> tuple[TProgram, dict[str, str]]:
    """Lower a traced vertex function to a forward tensor program.

    ``feature_widths`` declares each node feature as 's' (per-vertex scalar)
    or 'v' (per-vertex feature vector); undeclared features default to 'v'.
    Returns the program and the inferred buffer-width table (consumed by
    autodiff for broadcast resolution).
    """
    lowerer = _Lowerer(name, feature_widths)
    out = lowerer.lower_expr(traced.root)
    if lowerer.prog.spaces[out] != "node":
        raise CompileError("vertex program must produce a per-vertex (node-space) output")
    lowerer.prog.outputs = [out]
    return lowerer.prog, lowerer.widths
