"""The compiler verifier: static validation of everything a plan contains.

The compiler *assumes* a set of invariants it never previously *checked*:
the vertex-IR stage algebra (SRC/DST/EDGE/CONST), the SSA discipline of
lowered tensor programs, and the paper's central memory claim that the
backward program's saved set satisfies ``F_b ⊆ F_f`` (the State Stack
safety condition).  Violations — a mis-staged node, a dangling saved
buffer, a non-reduction scatter — historically fail *silently*, as wrong
gradients rather than errors.  This module makes them loud:

* :func:`verify_vnode_dag` — acyclicity, stage-algebra well-formedness
  (stages are recomputed bottom-up and compared against the stored ones),
  no destination-stage aggregation bodies, no orphan/duplicate feature
  leaves, nested-aggregation legality.
* :func:`verify_tprogram` — single assignment per buffer, def-before-use,
  no dangling inputs/outputs/consts, per-kind operand/attr schemas, space
  table completeness, the scale fold's legality (a folded scale is an input
  of the program), and write hazards: every lowered op is classified as
  gather / elementwise / reduce-scatter / structural by its
  :data:`~repro.compiler.tir.OP_SCHEMAS` entry; an edge-space value written
  into a node-space buffer by anything but a reduction is exactly the write
  that needs an atomic scatter on real hardware (Algorithm 3), so it is
  rejected.
* :func:`verify_gradients` — every differentiable forward input has a
  gradient output in the backward program (or was explicitly marked
  non-diff via ``grad_features``), every backward ``saved`` input is
  actually produced by the forward program (``F_b ⊆ F_f``; the result is
  wired through :class:`~repro.compiler.passes.SavedAnalysis`), and the
  grad seed references the forward output.

:func:`run_verifier` is the one check of a compiled program: every
:class:`~repro.compiler.plan.ProgramPlan` build runs it before codegen, so
each plan carries its report as ``plan.lint`` and a program that fails it
is never built.  There is no switch to turn it off; ``repro lint`` prints
what the builds already checked.  Each pass walks its IR once, and nothing
is memoised: the plan cache already builds each program once.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.compiler.diagnostics import LintReport
from repro.compiler.ir import Stage, VNode, combine_stages
from repro.compiler.passes import SavedAnalysis, saved_analysis
from repro.compiler.tir import EW_BINARY, EW_UNARY, IMPLICIT_ONES, OP_SCHEMAS, OpSchema, TProgram

__all__ = [
    "OpSchema",
    "OP_SCHEMAS",
    "verify_vnode_dag",
    "verify_tprogram",
    "verify_gradients",
    "run_verifier",
]

_AGG_OPS = {"sum", "mean", "max"}
_DIRECTIONS = {"in", "out"}


# ---------------------------------------------------------------------------
# 1. VNode DAG verifier
# ---------------------------------------------------------------------------
_DST, _EDGE, _CONST = Stage.DST, Stage.EDGE, Stage.CONST
_NO_AGGS: frozenset[VNode] = frozenset()


def verify_vnode_dag(root: VNode, report: LintReport, program: str = "") -> None:
    """Check a vertex-IR DAG: acyclicity, stage algebra, leaves, nesting.

    One depth-first walk does the node checks.  A back-edge to a node still
    on the walk is a cycle; every other node is checked as the walk leaves
    it (post-order), when its arguments' stages are already recomputed.
    Nesting needs an aggregation inside another, so only a DAG with two or
    more reads its post-order once more, from the first aggregation up.
    """
    # index[n] is -1 while n is on the walk, then its post-order
    # position: the ``%i`` of provenance strings.
    index: dict[VNode, int] = {}
    order: list[VNode] = []
    aggs: list[VNode] = []
    recomputed: dict[VNode, Stage] = {}
    seen_feats: dict[tuple[str, Stage], VNode] = {}

    def where(node: VNode) -> str:
        idx = index.get(node, -1)
        prefix = f"%{idx} " if idx >= 0 else ""
        name = f" {node.name!r}" if node.name else ""
        return f"{prefix}{node.op}.{node.stage.value}{name}"

    # A node is popped twice: first to mark it and push its unvisited
    # arguments above it, then, once they are all finished, to check it.
    stack: list[VNode] = [root]
    while stack:
        node = stack.pop()
        state = index.get(node)
        if state is None:
            index[node] = -1
            stack.append(node)
            for arg in node.args:
                state = index.get(arg)
                if state == -1:
                    report.add(
                        "STG001",
                        f"vertex IR reachable from op {root.op!r} contains a cycle through {arg.op!r}",
                        where=f"{arg.op}.{arg.stage.value}",
                        program=program,
                    )
                    return  # stages cannot be recomputed on a cyclic graph
                if state is None:
                    stack.append(arg)
            continue
        if state >= 0:
            continue  # already checked, reached again through another parent

        index[node] = len(order)
        order.append(node)
        args = node.args
        expected: Stage | None = None
        op = node.op
        if op == "feat":
            if not node.name:
                report.add(
                    "STG004",
                    "feature leaf has no name (orphan leaf cannot be bound to user data)",
                    where=where(node),
                    program=program,
                )
            else:
                seen = seen_feats.setdefault((node.name, node.stage), node)
                if seen is not node:
                    report.add(
                        "STG004",
                        f"duplicate feature leaf {node.name!r} at stage {node.stage.value!r} "
                        "(distinct leaf objects break trace memoization and the plan-cache signature)",
                        where=where(node),
                        program=program,
                    )
            if args:
                report.add("STG002", "feature leaf has arguments", where=where(node), program=program)
            if node.stage is _CONST:
                report.add("STG002", "feature leaf carries CONST stage", where=where(node), program=program)
            else:
                expected = node.stage
        elif op in EW_BINARY:
            if len(args) != 2:
                report.add(
                    "STG002",
                    f"binary op {op!r} has {len(args)} arguments",
                    where=where(node),
                    program=program,
                )
            else:
                a, b = args
                expected = combine_stages(
                    recomputed.get(a, a.stage), recomputed.get(b, b.stage)
                )
        elif op in EW_UNARY:
            if len(args) != 1:
                report.add(
                    "STG002",
                    f"unary op {op!r} has {len(args)} arguments",
                    where=where(node),
                    program=program,
                )
            else:
                a = args[0]
                expected = recomputed.get(a, a.stage)
        elif op == "const":
            if args:
                report.add("STG002", "const node has arguments", where=where(node), program=program)
            expected = _CONST
        elif op == "agg":
            aggs.append(node)
            expected = _DST
            agg_op = node.attrs.get("agg_op")
            direction = node.attrs.get("direction", "in")
            if agg_op not in _AGG_OPS:
                report.add(
                    "STG002",
                    f"aggregation has unknown agg_op {agg_op!r}",
                    where=where(node),
                    program=program,
                )
            if direction not in _DIRECTIONS:
                report.add(
                    "STG002",
                    f"aggregation has unknown direction {direction!r}",
                    where=where(node),
                    program=program,
                )
            if len(args) != 1:
                report.add(
                    "STG002",
                    f"aggregation has {len(args)} bodies",
                    where=where(node),
                    program=program,
                )
            else:
                a = args[0]
                if recomputed.get(a, a.stage) is _DST:
                    report.add(
                        "STG003",
                        "aggregation body is a pure destination-stage expression; "
                        "it references no neighbor value, so the sum is degree-scaling in disguise",
                        where=where(node),
                        program=program,
                    )
        elif op == "edge_softmax":
            expected = _EDGE
            if len(args) != 1:
                report.add(
                    "STG002",
                    f"edge_softmax has {len(args)} bodies",
                    where=where(node),
                    program=program,
                )
            else:
                a = args[0]
                if recomputed.get(a, a.stage) is _CONST:
                    report.add(
                        "STG002",
                        "edge_softmax of a constant score",
                        where=where(node),
                        program=program,
                    )
        else:
            report.add(
                "STG002",
                f"unknown vertex-IR op {op!r}",
                where=where(node),
                program=program,
            )

        if expected is not None:
            recomputed[node] = expected
            if node.stage is not expected:
                report.add(
                    "STG002",
                    f"stored stage {node.stage.value!r} disagrees with recomputed stage {expected.value!r}",
                    where=where(node),
                    program=program,
                )

    # -- nested-aggregation legality (STG005) ---------------------------
    # An inner `agg` reached from an outer one's body through an EDGE-stage
    # intermediate has been pulled into per-edge space: a gather per edge,
    # legal only at scalar width (vector widths are the E×F blow-up
    # lowering hard-rejects).  first[n] holds the aggregations reachable
    # from n (n included) through no other one; via_edge[n] those reachable
    # from n's arguments through an EDGE-stage node at or below n.  An
    # aggregation's findings are its body's via_edge set.
    if len(aggs) < 2:
        return
    first: dict[VNode, frozenset[VNode]] = {}
    via_edge: dict[VNode, frozenset[VNode]] = {}
    for node in order[index[aggs[0]]:]:
        args = node.args
        edge = recomputed.get(node, node.stage) is _EDGE
        reach = below = _NO_AGGS
        for arg in args:
            reach_arg = first.get(arg, _NO_AGGS)
            below_arg = reach_arg if edge else via_edge.get(arg, _NO_AGGS)
            if reach_arg:
                reach = reach | reach_arg
            if below_arg:
                below = below | below_arg
        if node.op == "agg":
            found = via_edge.get(args[0], _NO_AGGS) if args else _NO_AGGS
            for inner in sorted(found, key=index.__getitem__):
                report.add(
                    "STG005",
                    "nested aggregation result pulled into edge space; this gathers a "
                    "destination value per edge and is legal only at scalar width",
                    where=where(inner),
                    program=program,
                )
            reach = frozenset((node,))
        if reach:
            first[node] = reach
        if below:
            via_edge[node] = below


# ---------------------------------------------------------------------------
# 2. TProgram verifier
# ---------------------------------------------------------------------------
def verify_tprogram(prog: TProgram, report: LintReport) -> None:
    """Check a tensor program: SSA, def-before-use, dangling names, schemas,
    and write hazards, in one walk over its ops."""
    program = prog.name
    spaces = prog.spaces

    # -- space-table completeness for inputs/consts (STG014) -------------
    # (op results are checked inside the main walk below)
    for buf in (*prog.inputs, *prog.consts):
        if buf not in spaces:
            report.add(
                "STG014",
                f"buffer {buf!r} is missing from the space table",
                where=f"buffer {buf!r}",
                program=program,
            )

    # -- SSA / def-before-use / schema / write-hazard walk ---------------
    available: set[str] = {*prog.inputs, *prog.consts}
    for op in prog.ops:
        out, ins, attrs = op.out, op.ins, op.attrs
        if out not in spaces:
            report.add(
                "STG014",
                f"buffer {out!r} is missing from the space table",
                where=f"buffer {out!r}",
                program=program,
            )
        schema = OP_SCHEMAS.get(op.kind)
        if schema is None:
            report.add(
                "STG013", f"unknown op kind {op.kind!r}", where=f"op {op.render()}", program=program
            )
        else:
            lo, hi = schema.arity
            if not (lo <= len(ins) <= hi):
                report.add(
                    "STG013",
                    f"op {op.kind!r} takes {lo}..{hi} operands, got {len(ins)}",
                    where=f"op {op.render()}",
                    program=program,
                )
            if not attrs.keys() >= schema.required:
                report.add(
                    "STG013",
                    f"op {op.kind!r} is missing required attrs {sorted(schema.required - attrs.keys())}",
                    where=f"op {op.render()}",
                    program=program,
                )
            if attrs:
                if not (attrs.keys() <= schema.allowed):
                    report.add(
                        "STG013",
                        f"op {op.kind!r} carries unexpected attrs "
                        f"{sorted(attrs.keys() - schema.allowed)}",
                        where=f"op {op.render()}",
                        program=program,
                    )
                if "direction" in attrs and attrs["direction"] not in _DIRECTIONS:
                    report.add(
                        "STG013",
                        f"direction must be 'in' or 'out', got {attrs['direction']!r}",
                        where=f"op {op.render()}",
                        program=program,
                    )
                if op.kind == "ew" and "op" in attrs:
                    ew = attrs["op"]
                    legal = EW_UNARY if len(ins) == 1 else EW_BINARY
                    if ew not in legal:
                        report.add(
                            "STG013",
                            f"elementwise op {ew!r} is not a known "
                            f"{'unary' if len(ins) == 1 else 'binary'} op",
                            where=f"op {op.render()}",
                            program=program,
                        )

        if IMPLICIT_ONES in ins:
            # The implicit all-ones edge weight is a *declared* pseudo input,
            # legal only in the weight slot of the SpMM family.
            for pos, name in enumerate(ins):
                if name == IMPLICIT_ONES and (schema is None or pos not in schema.ones_positions):
                    report.add(
                        "STG013",
                        f"implicit input {IMPLICIT_ONES!r} is only legal as the weight "
                        f"operand of spmm/spmm_T, not operand {pos} of {op.kind!r}",
                        where=f"op {op.render()}",
                        program=program,
                    )
        if schema is not None and schema.scale_positions:
            # A folded scale is read as structure of the snapshot: it must be
            # bound (or saved) as an input, never computed by the program.
            for pos in schema.scale_positions:
                name = ins[pos] if pos < len(ins) else None
                if name not in prog.inputs or spaces.get(name) != "node":
                    report.add(
                        "STG015",
                        f"operand {pos} of {op.kind!r} must be a node-space input of the "
                        f"program (a read-only vertex scale), not {name!r}",
                        where=f"op {op.render()}",
                        program=program,
                    )
        has_edge = has_node = False
        for name in ins:
            if name not in available and name != IMPLICIT_ONES:
                report.add(
                    "STG011",
                    f"op reads buffer {name!r} before any definition",
                    where=f"op {op.render()}",
                    program=program,
                )
            space = spaces.get(name)
            if space == "edge":
                has_edge = True
            elif space == "node":
                has_node = True

        # Write hazards (STG030), the atomic-scatter condition of
        # Algorithm 3: an edge-parallel value accumulated into a node-space
        # buffer needs an atomic scatter on real hardware, so only the
        # reduction kinds may cross from edge space into node space.  A
        # non-reduction op that mixes spaces is a race waiting to happen.
        if has_edge and schema is not None and schema.klass != "reduce":
            if spaces.get(out) == "node":
                report.add(
                    "STG030",
                    f"{schema.klass} op {op.kind!r} writes an edge-space value into node-space "
                    f"buffer {out!r}; only reductions may cross edge→node (atomic-scatter condition)",
                    where=f"op {op.render()}",
                    program=program,
                )
            elif has_node:
                report.add(
                    "STG030",
                    f"{schema.klass} op {op.kind!r} mixes edge-space and node-space operands "
                    "without a reduction; per-edge feature math materializes E×F memory",
                    where=f"op {op.render()}",
                    program=program,
                )

        if out in available:
            what = (
                "an input" if out in prog.inputs
                else "a const" if out in prog.consts
                else "an earlier op result"
            )
            report.add(
                "STG010",
                f"buffer {out!r} redefined (already {what}); programs are single-assignment",
                where=f"op {op.render()}",
                program=program,
            )
        available.add(out)

    # -- dangling names (STG012) ----------------------------------------
    used = set(prog.outputs).union(*[op.ins for op in prog.ops])
    for out in prog.outputs:
        if out not in available:
            report.add(
                "STG012",
                f"declared output {out!r} is never defined",
                where=f"output {out!r}",
                program=program,
            )
    for buf in prog.inputs:
        if buf not in used:
            report.add(
                "STG012",
                f"declared input {buf!r} is never read (dead binding)",
                where=f"input {buf!r}",
                program=program,
                severity="warning",
            )
    for buf in prog.consts:
        if buf not in used:
            report.add(
                "STG012",
                f"declared const {buf!r} is never read",
                where=f"const {buf!r}",
                program=program,
                severity="warning",
            )


# ---------------------------------------------------------------------------
# 3. Gradient completeness + State-Stack safety (F_b ⊆ F_f)
# ---------------------------------------------------------------------------
def verify_gradients(
    fwd: TProgram,
    bwd: TProgram,
    grad_map: Mapping[str, str],
    wrt: Iterable[str],
    report: LintReport,
    saved_spec: Iterable[str] | None = None,
    analysis: "SavedAnalysis | None" = None,
) -> None:
    """Check grad-completeness and the backward program's forward references.

    ``wrt`` is the set of forward input buffers declared differentiable
    (from ``grad_features``; inputs outside it are *explicitly* non-diff).
    ``saved_spec`` is the plan's State-Stack manifest — what the executor
    actually pushes per timestamp; every saved read must be inside it.
    ``analysis`` may pass a precomputed :class:`SavedAnalysis` of the same
    (fwd, bwd) pair to avoid recomputing it.
    """
    bwd_outputs = set(bwd.outputs)
    for buf in sorted(set(wrt)):
        grad = grad_map.get(buf)
        if grad is None or grad not in bwd_outputs:
            report.add(
                "STG020",
                f"differentiable forward input {buf!r} has no gradient output in the "
                "backward program (mark it non-diff via grad_features, or the VJP chain was dropped)",
                where=f"input {buf!r}",
                program=bwd.name,
            )

    # F_b ⊆ F_f: wired through the saved-tensor analysis so the State-Stack
    # report and the verifier agree on what "produced by forward" means.
    if analysis is None:
        analysis = saved_analysis(fwd, bwd)
    for name in analysis.missing:
        report.add(
            "STG021",
            f"backward saved input {name!r} is not produced by the forward program "
            "(F_b ⊆ F_f violated: the State Stack could never hold it)",
            where=f"saved input {name!r}",
            program=bwd.name,
        )
    if saved_spec is not None:
        spec = set(saved_spec)
        for name in analysis.saved:
            if name in spec or name in analysis.missing:
                continue
            report.add(
                "STG021",
                f"backward saved input {name!r} is missing from the plan's saved_spec; "
                "the executor would never push it onto the State Stack",
                where=f"saved input {name!r}",
                program=bwd.name,
            )

    fwd_outputs = set(fwd.outputs)
    for name, (kind, ref) in bwd.inputs.items():
        if kind == "grad" and ref not in fwd_outputs:
            report.add(
                "STG022",
                f"grad seed {name!r} references {ref!r}, which is not a forward output",
                where=f"grad input {name!r}",
                program=bwd.name,
            )


# ---------------------------------------------------------------------------
# The full suite
# ---------------------------------------------------------------------------
def run_verifier(
    root: VNode,
    fwd: TProgram,
    bwd: TProgram,
    grad_map: Mapping[str, str],
    wrt: Iterable[str],
    saved_spec: Iterable[str] | None,
    subject: str = "",
    analysis: "SavedAnalysis | None" = None,
) -> LintReport:
    """Run every pass over one compilation's artifacts; returns the report."""
    report = LintReport(subject=subject)
    verify_vnode_dag(root, report, program=subject)
    verify_tprogram(fwd, report)
    verify_tprogram(bwd, report)
    verify_gradients(fwd, bwd, grad_map, wrt, report, saved_spec=saved_spec, analysis=analysis)
    return report
