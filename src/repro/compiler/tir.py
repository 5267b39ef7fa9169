"""Tensor-level IR: the linear program codegen and the interpreter execute.

After lowering, a vertex program is a sequence of :class:`TOp` over named
buffers living in one of three *spaces*:

* ``node``  — arrays with first dimension N (features, payloads, outputs);
* ``edge``  — scalars per edge in canonical (forward-CSR position) order;
* ``scalar``— Python floats (folded constants).

The aggregation ops are where the graph enters:

=================  ===========================================================
``spmm``           ``out[v] = Σ_{e∈in(v)} w[e]·x[src[e]]`` (forward CSR);
                   ``w`` may be the literal ``"__ones__"``.
``spmm_T``         the transpose product over the backward CSR (gradient path)
``segment_sum``    edge scalars summed per destination
``segment_sum_dst``alias of segment_sum used by gradients of ``gather_dst``
``scatter_src``    edge scalars summed per *source* vertex
``gather_src``     node value replicated per edge from its source
``gather_dst``     node value replicated per edge from its destination
``edge_softmax``   softmax of an edge score over each vertex's in-edges
``edge_dot``       per-edge feature dot of two node-space values
``agg_max``        max-aggregation of a node payload over in-edges
=================  ===========================================================

:data:`OP_SCHEMAS` is the one table of op kinds: the verifier checks
operands and write hazards against it, and codegen and the interpreter pass
the graph context to every kind whose class is not ``"elementwise"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "TOp",
    "TProgram",
    "EW_UNARY",
    "EW_BINARY",
    "IMPLICIT_ONES",
    "OpSchema",
    "OP_SCHEMAS",
]

EW_UNARY = {"neg", "exp", "log", "tanh", "sigmoid", "relu", "leaky_relu", "recip"}
EW_BINARY = {"add", "sub", "mul", "div"}

#: The implicit all-ones edge weight of an unweighted SpMM.  A *declared*
#: pseudo input shared by lowering, autodiff, DCE, codegen, and both
#: engines — the verifier only permits it in the weight slot of the SpMM
#: family (see :data:`OP_SCHEMAS`).
IMPLICIT_ONES = "__ones__"


@dataclass(frozen=True)
class OpSchema:
    """Static shape of one tensor-IR op kind.

    ``klass`` is the write-hazard classification used by
    :func:`~repro.compiler.verify.verify_write_hazards`:

    * ``"reduce"``       — aggregates edge/neighbor values into node space
      (the only legal edge→node writes; atomic scatters on real hardware);
    * ``"gather"``       — replicates node values per edge (node→edge);
    * ``"edge_local"``   — per-edge-group math, edge in / edge out;
    * ``"elementwise"``  — space-preserving math (the only kinds that run
      without the graph context);
    * ``"structural"``   — reads only graph structure (degrees, ones).
    """

    arity: tuple[int, int]
    klass: str
    out_space: str | None = None  # fixed output space; None = input-derived
    required: frozenset = frozenset()
    optional: frozenset = frozenset()
    #: operand positions where the implicit all-ones weight is legal
    ones_positions: frozenset = frozenset()
    #: required ∪ optional, precomputed for the verifier's hot path
    allowed: frozenset = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed", self.required | self.optional)


_DIR = frozenset({"direction"})

#: Every op kind (operand count, attrs, hazard class, output space).  The
#: runtime primitive of kind ``k`` is ``RUNTIME_NAMESPACE[k]``, except
#: ``ew``, which resolves to ``ew_<attrs["op"]>``.
OP_SCHEMAS: dict[str, OpSchema] = {
    "ew": OpSchema((1, 2), "elementwise", required=frozenset({"op"}), optional=frozenset({"slope"})),
    "spmm": OpSchema((2, 2), "reduce", "node", optional=_DIR, ones_positions=frozenset({0})),
    "spmm_T": OpSchema((2, 2), "reduce", "node", optional=_DIR, ones_positions=frozenset({0})),
    "segment_sum": OpSchema((1, 1), "reduce", "node"),
    "segment_sum_dst": OpSchema((1, 1), "reduce", "node"),
    "segment_max": OpSchema((1, 1), "reduce", "node"),
    "scatter_src": OpSchema((1, 1), "reduce", "node"),
    "gather_src": OpSchema((1, 1), "gather", "edge"),
    "gather_dst": OpSchema((1, 1), "gather", "edge"),
    "edge_softmax": OpSchema((1, 1), "edge_local", "edge"),
    "edge_softmax_bwd": OpSchema((2, 2), "edge_local", "edge"),
    "edge_dot": OpSchema((2, 2), "gather", "edge", optional=_DIR),
    "agg_max": OpSchema((1, 1), "reduce", "node"),
    "agg_max_bwd": OpSchema((3, 3), "reduce", "node"),
    "in_deg": OpSchema((0, 0), "structural", "node"),
    "in_deg_clamped": OpSchema((0, 0), "structural", "node"),
    "out_deg": OpSchema((0, 0), "structural", "node"),
    "out_deg_clamped": OpSchema((0, 0), "structural", "node"),
    "ones_node": OpSchema((0, 0), "structural", "node"),
    "colsum": OpSchema((1, 1), "elementwise"),
    "relu_mask": OpSchema((1, 1), "elementwise"),
    "leaky_mask": OpSchema((1, 1), "elementwise", optional=frozenset({"slope"})),
}


@dataclass(frozen=True)
class TOp:
    """One tensor-IR instruction: ``out = kind(*ins, **attrs)``."""
    kind: str
    out: str
    ins: tuple[str, ...]
    attrs: dict = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable single-line form."""
        attrs = "".join(f", {k}={v!r}" for k, v in sorted(self.attrs.items()))
        return f"{self.out} = {self.kind}({', '.join(self.ins)}{attrs})"


@dataclass
class TProgram:
    """A linear tensor program.

    ``inputs`` maps buffer name → ("node"|"edge", feature_name): how the
    executor binds user arrays.  ``consts`` maps buffer name → float.
    ``spaces`` records each buffer's space for validation and codegen.
    """

    name: str
    ops: list[TOp] = field(default_factory=list)
    inputs: dict[str, tuple[str, str]] = field(default_factory=dict)
    consts: dict[str, float] = field(default_factory=dict)
    spaces: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)

    def defined_by(self) -> dict[str, TOp]:
        """Map from buffer name to the op that defines it."""
        return {op.out: op for op in self.ops}

    def all_buffers(self) -> set[str]:
        """Every buffer name the program mentions."""
        names = set(self.inputs) | set(self.consts) | {op.out for op in self.ops}
        return names

    def validate(self) -> None:
        """Check single-assignment and that every read is defined."""
        available = set(self.inputs) | set(self.consts)
        for op in self.ops:
            for name in op.ins:
                if name == IMPLICIT_ONES:
                    continue
                if name not in available:
                    raise ValueError(f"{self.name}: op {op.render()} reads undefined buffer {name!r}")
            if op.out in available:
                raise ValueError(f"{self.name}: buffer {op.out!r} redefined")
            available.add(op.out)
        for out in self.outputs:
            if out not in available:
                raise ValueError(f"{self.name}: output {out!r} never defined")

    def render(self) -> str:
        """Readable multi-line dump (inputs, consts, ops, outputs)."""
        lines = [f"program {self.name}:"]
        for buf, (kind, feat) in sorted(self.inputs.items()):
            lines.append(f"  input {buf} : {kind}[{feat}]")
        for buf, val in sorted(self.consts.items()):
            lines.append(f"  const {buf} = {val}")
        for op in self.ops:
            lines.append(f"  {op.render()}")
        lines.append(f"  return {', '.join(self.outputs)}")
        return "\n".join(lines)
