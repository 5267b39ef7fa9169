"""Vertex-level IR: a DAG of staged expression nodes.

Each node carries a :class:`Stage`:

* ``SRC`` — a value per *source* (in-neighbor) vertex; lives in node space.
* ``DST`` — a value per *destination* (center) vertex; node space.
* ``EDGE`` — a scalar per edge (attention scores, edge weights).
* ``CONST`` — stage-free constants.

Stage algebra for binary ops: ``CONST`` is absorbed by the other operand;
``SRC ∘ DST`` (or anything involving ``EDGE``) produces ``EDGE``.  An
aggregation consumes an edge-stage (or src-stage) body and produces ``DST``.
"""

from __future__ import annotations

import enum
import itertools

__all__ = ["Stage", "VNode", "combine_stages"]

_counter = itertools.count()


class Stage(enum.Enum):
    """Where a value lives relative to the aggregation (SRC/DST/EDGE/CONST)."""
    SRC = "src"
    DST = "dst"
    EDGE = "edge"
    CONST = "const"


_CONST, _EDGE = Stage.CONST, Stage.EDGE


def combine_stages(a: Stage, b: Stage) -> Stage:
    """Stage of a binary op's result (CONST absorbs, SRC x DST -> EDGE)."""
    if a is b:
        return a
    if a is _CONST:
        return b
    if b is _CONST:
        return a
    return _EDGE


_ELEMENTWISE_UNARY = {"neg", "exp", "log", "tanh", "sigmoid", "relu", "leaky_relu", "recip"}
_ELEMENTWISE_BINARY = {"add", "sub", "mul", "div"}
_AGG_OPS = {"sum", "mean", "max"}


class VNode:
    """One vertex-IR node.

    ``op`` is one of: ``feat`` (leaf: node or edge feature), ``const``,
    an elementwise op, ``agg`` (attrs: agg_op), or ``edge_softmax``.
    """

    __slots__ = ("op", "args", "stage", "name", "attrs", "uid")

    def __init__(self, op: str, args: tuple["VNode", ...], stage: Stage, name: str = "", attrs: dict | None = None) -> None:
        self.op = op
        self.args = args
        self.stage = stage
        self.name = name
        self.attrs = attrs or {}
        self.uid = next(_counter)

    # -- constructors --------------------------------------------------
    @staticmethod
    def feat(name: str, stage: Stage) -> "VNode":
        """A node or edge feature leaf."""
        return VNode("feat", (), stage, name=name)

    @staticmethod
    def const(value: float) -> "VNode":
        """A stage-free scalar constant."""
        return VNode("const", (), Stage.CONST, attrs={"value": float(value)})

    @staticmethod
    def unary(op: str, a: "VNode", **attrs: float) -> "VNode":
        """An elementwise unary op node."""
        assert op in _ELEMENTWISE_UNARY, op
        return VNode(op, (a,), a.stage, attrs=attrs)

    @staticmethod
    def binary(op: str, a: "VNode", b: "VNode") -> "VNode":
        """An elementwise binary op node with stage combination."""
        assert op in _ELEMENTWISE_BINARY, op
        return VNode(op, (a, b), combine_stages(a.stage, b.stage))

    @staticmethod
    def agg(agg_op: str, body: "VNode", direction: str = "in") -> "VNode":
        """An aggregation over in- (default) or out-neighbors; result is DST-stage."""
        assert agg_op in _AGG_OPS, agg_op
        assert direction in ("in", "out"), direction
        if body.stage == Stage.DST:
            raise ValueError(
                "aggregation body is a pure destination-stage expression; "
                "it does not reference any neighbor value"
            )
        return VNode("agg", (body,), Stage.DST, attrs={"agg_op": agg_op, "direction": direction})

    @staticmethod
    def edge_softmax(body: "VNode") -> "VNode":
        """Softmax of a per-edge score over each vertex's in-edges."""
        if body.stage == Stage.CONST:
            raise ValueError("edge_softmax of a constant")
        return VNode("edge_softmax", (body,), Stage.EDGE)

    # -- operator sugar (mirrors the tensor API inside traces) ----------
    def _coerce(self, other) -> "VNode":
        if isinstance(other, VNode):
            return other
        if isinstance(other, (int, float)):
            return VNode.const(other)
        raise TypeError(f"cannot combine VNode with {type(other).__name__}")

    def __add__(self, other) -> "VNode":
        other = self._coerce(other)
        return VNode.binary("add", self, other)

    def __radd__(self, other) -> "VNode":
        # `sum(gen)` starts from int 0: fold it into an aggregation marker is
        # handled by the NbProxy generator protocol; a bare 0 + expr is just
        # the expression.
        if isinstance(other, (int, float)) and other == 0:
            return self
        return VNode.binary("add", self._coerce(other), self)

    def __sub__(self, other) -> "VNode":
        return VNode.binary("sub", self, self._coerce(other))

    def __rsub__(self, other) -> "VNode":
        return VNode.binary("sub", self._coerce(other), self)

    def __mul__(self, other) -> "VNode":
        return VNode.binary("mul", self, self._coerce(other))

    def __rmul__(self, other) -> "VNode":
        return VNode.binary("mul", self._coerce(other), self)

    def __truediv__(self, other) -> "VNode":
        return VNode.binary("div", self, self._coerce(other))

    def __rtruediv__(self, other) -> "VNode":
        return VNode.binary("div", self._coerce(other), self)

    def __neg__(self) -> "VNode":
        return VNode.unary("neg", self)

    # -- traversal -------------------------------------------------------
    def topo(self) -> list["VNode"]:
        """Topological order (leaves first), deduplicated by identity."""
        seen: set[int] = set()
        order: list[VNode] = []

        stack: list[tuple[VNode, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for arg in node.args:
                stack.append((arg, False))
        return order

    def leaves(self) -> list["VNode"]:
        """All feature leaves in the DAG."""
        return [n for n in self.topo() if n.op == "feat"]

    def signature(self) -> str:
        """Structural hash-ready string (used as the kernel-cache key).

        Name and attrs are emitted with explicit ``name=…|attrs=…``
        delimiters: a bare concatenation would let distinct DAGs collide on
        the plan-cache key (e.g. a leaf named ``"xslope=0.01"`` vs a leaf
        ``"x"`` with ``attrs={"slope": 0.01}``).
        """
        parts = []
        ids: dict[int, int] = {}
        for i, node in enumerate(self.topo()):
            ids[id(node)] = i
            arg_ids = ",".join(str(ids[id(a)]) for a in node.args)
            attrs = ",".join(f"{k}={v!r}" for k, v in sorted(node.attrs.items()))
            parts.append(f"{i}:{node.op}[{node.stage.value}]({arg_ids})name={node.name}|attrs={attrs}")
        return ";".join(parts)

    def pretty(self) -> str:
        """Human-readable multi-line dump of the DAG."""
        lines = []
        ids: dict[int, int] = {}
        for i, node in enumerate(self.topo()):
            ids[id(node)] = i
            args = ", ".join(f"%{ids[id(a)]}" for a in node.args)
            extra = f" {node.name}" if node.name else ""
            extra += f" {node.attrs}" if node.attrs else ""
            lines.append(f"%{i} = {node.op}.{node.stage.value}({args}){extra}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VNode({self.op}, stage={self.stage.value}, name={self.name!r})"
