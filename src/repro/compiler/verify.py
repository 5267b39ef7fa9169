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
  table completeness.
* :func:`verify_gradients` — every differentiable forward input has a
  gradient output in the backward program (or was explicitly marked
  non-diff via ``grad_features``), every backward ``saved`` input is
  actually produced by the forward program (``F_b ⊆ F_f``; the result is
  wired through :class:`~repro.compiler.passes.SavedAnalysis`), and the
  grad seed references the forward output.
* :func:`verify_write_hazards` — every lowered op is classified as
  gather / elementwise / reduce-scatter / structural; an edge-space value
  written into a node-space buffer by anything but a reduction is exactly
  the write that needs an atomic scatter on real hardware (Algorithm 3),
  so it is rejected.

The full suite runs automatically when a :class:`ProgramPlan` is built
(:func:`set_verification` / :func:`verification_disabled` turn it off
process-wide) and on demand via ``repro lint``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.compiler.diagnostics import LintReport
from repro.compiler.ir import Stage, VNode, combine_stages
from repro.compiler.passes import SavedAnalysis, saved_analysis
from repro.compiler.tir import EW_BINARY, EW_UNARY, IMPLICIT_ONES, OP_SCHEMAS, OpSchema, TProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.plan import ProgramPlan

__all__ = [
    "OpSchema",
    "OP_SCHEMAS",
    "verify_vnode_dag",
    "verify_tprogram",
    "verify_gradients",
    "verify_write_hazards",
    "run_verifier",
    "verify_plan",
    "verification_enabled",
    "set_verification",
    "verification_disabled",
]

_AGG_OPS = {"sum", "mean", "max"}
_DIRECTIONS = {"in", "out"}


# ---------------------------------------------------------------------------
# Escape hatch
# ---------------------------------------------------------------------------
_enabled = True


def verification_enabled() -> bool:
    """Whether plan builds run the verifier (default on)."""
    return _enabled


def set_verification(enabled: bool) -> bool:
    """Toggle plan-build verification; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


@contextmanager
def verification_disabled() -> Iterator[None]:
    """Context manager form of the escape hatch (ablation/benchmark use)."""
    previous = set_verification(False)
    try:
        yield
    finally:
        set_verification(previous)


# ---------------------------------------------------------------------------
# 1. VNode DAG verifier
# ---------------------------------------------------------------------------
def _node_where(node: VNode, ids: Mapping[int, int]) -> str:
    idx = ids.get(id(node))
    prefix = f"%{idx} " if idx is not None else ""
    name = f" {node.name!r}" if node.name else ""
    return f"{prefix}{node.op}.{node.stage.value}{name}"


def verify_vnode_dag(root: VNode, report: LintReport, program: str = "") -> None:
    """Check a vertex-IR DAG: acyclicity, stage algebra, leaves, nesting."""
    # One DFS does both jobs: a back-edge to a GRAY node is a cycle, and
    # the post-order is the topological order the stage recomputation needs.
    WHITE, GRAY = 0, 1
    color: dict[int, int] = {}
    order: list[VNode] = []
    stack: list[tuple[VNode, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            color[id(node)] = 2  # BLACK
            order.append(node)
            continue
        if color.get(id(node), WHITE):
            continue
        color[id(node)] = GRAY
        stack.append((node, True))
        for arg in node.args:
            state = color.get(id(arg), WHITE)
            if state == GRAY:
                report.add(
                    "STG001",
                    f"vertex IR reachable from op {root.op!r} contains a cycle through {arg.op!r}",
                    where=f"{arg.op}.{arg.stage.value}",
                    program=program,
                )
                return  # stages cannot be recomputed on a cyclic graph
            if state == WHITE:
                stack.append((arg, False))

    # Index map for provenance strings: only materialized on first finding
    # (the clean path never pays for it).
    ids: dict[int, int] = {}

    def where(node: VNode) -> str:
        if not ids:
            ids.update({id(n): i for i, n in enumerate(order)})
        return _node_where(node, ids)

    recomputed: dict[int, Stage] = {}
    seen_feats: dict[tuple[str, Stage], VNode] = {}
    aggs: list[VNode] = []

    # -- leaves (STG004) + stage recomputation bottom-up (STG002/STG003) --
    for node in order:
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
                key = (node.name, node.stage)
                first = seen_feats.get(key)
                if first is not None and first is not node:
                    report.add(
                        "STG004",
                        f"duplicate feature leaf {node.name!r} at stage {node.stage.value!r} "
                        "(distinct leaf objects break trace memoization and the plan-cache signature)",
                        where=where(node),
                        program=program,
                    )
                else:
                    seen_feats[key] = node
            if node.args:
                report.add("STG002", "feature leaf has arguments", where=where(node), program=program)
            if node.stage == Stage.CONST:
                report.add("STG002", "feature leaf carries CONST stage", where=where(node), program=program)
            expected = node.stage if node.stage != Stage.CONST else None
        elif op in EW_BINARY:
            if len(node.args) != 2:
                report.add(
                    "STG002",
                    f"binary op {op!r} has {len(node.args)} arguments",
                    where=where(node),
                    program=program,
                )
            else:
                a, b = node.args
                expected = combine_stages(
                    recomputed.get(id(a), a.stage), recomputed.get(id(b), b.stage)
                )
        elif op in EW_UNARY:
            if len(node.args) != 1:
                report.add(
                    "STG002",
                    f"unary op {op!r} has {len(node.args)} arguments",
                    where=where(node),
                    program=program,
                )
            else:
                a = node.args[0]
                expected = recomputed.get(id(a), a.stage)
        elif op == "const":
            if node.args:
                report.add("STG002", "const node has arguments", where=where(node), program=program)
            expected = Stage.CONST
        elif op == "agg":
            aggs.append(node)
            expected = Stage.DST
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
            if len(node.args) != 1:
                report.add(
                    "STG002",
                    f"aggregation has {len(node.args)} bodies",
                    where=where(node),
                    program=program,
                )
            else:
                a = node.args[0]
                if recomputed.get(id(a), a.stage) == Stage.DST:
                    report.add(
                        "STG003",
                        "aggregation body is a pure destination-stage expression; "
                        "it references no neighbor value, so the sum is degree-scaling in disguise",
                        where=where(node),
                        program=program,
                    )
        elif op == "edge_softmax":
            expected = Stage.EDGE
            if len(node.args) != 1:
                report.add(
                    "STG002",
                    f"edge_softmax has {len(node.args)} bodies",
                    where=where(node),
                    program=program,
                )
            else:
                a = node.args[0]
                if recomputed.get(id(a), a.stage) == Stage.CONST:
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
            recomputed[id(node)] = expected
            if node.stage != expected:
                report.add(
                    "STG002",
                    f"stored stage {node.stage.value!r} disagrees with recomputed stage {expected.value!r}",
                    where=where(node),
                    program=program,
                )

    # -- nested-aggregation legality (STG005) ---------------------------
    for node in aggs:
        if not node.args:
            continue
        # Walk the body; an inner `agg` reached through an EDGE-stage
        # intermediate has been pulled into per-edge space — a gather per
        # edge, legal only at scalar width (vector widths are the E×F
        # blow-up lowering hard-rejects).  edge_softmax bodies are the
        # intended GAT pattern and stay exempt.
        stack: list[tuple[VNode, bool]] = [(node.args[0], False)]
        visited: dict[bool, set[int]] = {False: set(), True: set()}
        while stack:
            cur, via_edge = stack.pop()
            if id(cur) in visited[via_edge]:
                continue
            visited[via_edge].add(id(cur))
            if cur.op == "agg" and cur is not node and via_edge:
                report.add(
                    "STG005",
                    "nested aggregation result pulled into edge space; this gathers a "
                    "destination value per edge and is legal only at scalar width",
                    where=where(cur),
                    program=program,
                )
                continue
            flag = via_edge or recomputed.get(id(cur), cur.stage) == Stage.EDGE
            for arg in cur.args:
                stack.append((arg, flag))


# ---------------------------------------------------------------------------
# 2. TProgram verifier
# ---------------------------------------------------------------------------
def verify_tprogram(prog: TProgram, report: LintReport) -> None:
    """Check a tensor program: SSA, def-before-use, dangling names, schemas."""
    program = prog.name
    spaces = prog.spaces

    # -- space-table completeness for inputs/consts (STG014) -------------
    # (op results are checked inside the main walk below)
    for buf in prog.inputs:
        if buf not in spaces:
            report.add(
                "STG014",
                f"buffer {buf!r} is missing from the space table",
                where=f"buffer {buf!r}",
                program=program,
            )
    for buf in prog.consts:
        if buf not in spaces:
            report.add(
                "STG014",
                f"buffer {buf!r} is missing from the space table",
                where=f"buffer {buf!r}",
                program=program,
            )

    # -- SSA / def-before-use / schema walk ------------------------------
    available: set[str] = set(prog.inputs) | set(prog.consts)
    used: set[str] = set()
    for op in prog.ops:
        if op.out not in spaces:
            report.add(
                "STG014",
                f"buffer {op.out!r} is missing from the space table",
                where=f"buffer {op.out!r}",
                program=program,
            )
        schema = OP_SCHEMAS.get(op.kind)
        attrs = op.attrs
        if schema is None:
            report.add(
                "STG013", f"unknown op kind {op.kind!r}", where=f"op {op.render()}", program=program
            )
        else:
            lo, hi = schema.arity
            if not (lo <= len(op.ins) <= hi):
                report.add(
                    "STG013",
                    f"op {op.kind!r} takes {lo}..{hi} operands, got {len(op.ins)}",
                    where=f"op {op.render()}",
                    program=program,
                )
            if schema.required and not (schema.required <= attrs.keys()):
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
                    legal = EW_UNARY if len(op.ins) == 1 else EW_BINARY
                    if ew not in legal:
                        report.add(
                            "STG013",
                            f"elementwise op {ew!r} is not a known "
                            f"{'unary' if len(op.ins) == 1 else 'binary'} op",
                            where=f"op {op.render()}",
                            program=program,
                        )

        for pos, name in enumerate(op.ins):
            if name == IMPLICIT_ONES:
                # The implicit all-ones edge weight is a *declared* pseudo
                # input, legal only in the weight slot of the SpMM family.
                if schema is None or pos not in schema.ones_positions:
                    report.add(
                        "STG013",
                        f"implicit input {IMPLICIT_ONES!r} is only legal as the weight "
                        f"operand of spmm/spmm_T, not operand {pos} of {op.kind!r}",
                        where=f"op {op.render()}",
                        program=program,
                    )
                continue
            used.add(name)
            if name not in available:
                report.add(
                    "STG011",
                    f"op reads buffer {name!r} before any definition",
                    where=f"op {op.render()}",
                    program=program,
                )
        if op.out in available:
            what = (
                "an input" if op.out in prog.inputs
                else "a const" if op.out in prog.consts
                else "an earlier op result"
            )
            report.add(
                "STG010",
                f"buffer {op.out!r} redefined (already {what}); programs are single-assignment",
                where=f"op {op.render()}",
                program=program,
            )
        available.add(op.out)

    # -- dangling names (STG012) ----------------------------------------
    for out in prog.outputs:
        used.add(out)
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
# 4. Write-hazard analysis (the atomic-scatter condition, Algorithm 3)
# ---------------------------------------------------------------------------
def verify_write_hazards(prog: TProgram, report: LintReport) -> None:
    """Reject edge→node writes that are not reductions.

    On real hardware an edge-parallel value accumulated into a node-space
    buffer needs an atomic scatter (Algorithm 3's update kernels); the
    lowered IR therefore only permits the dedicated reduction kinds to
    cross from edge space into node space.  A non-reduction op that mixes
    spaces is a race waiting to happen, so it is rejected statically.
    """
    spaces = prog.spaces
    for op in prog.ops:
        schema = OP_SCHEMAS.get(op.kind)
        if schema is None or schema.klass == "reduce" or not op.ins:
            continue  # unknown kinds already flagged as STG013
        has_edge = has_node = False
        for name in op.ins:
            space = spaces.get(name)
            if space == "edge":
                has_edge = True
            elif space == "node":
                has_node = True
        if not has_edge:
            continue
        if spaces.get(op.out) == "node":
            report.add(
                "STG030",
                f"{schema.klass} op {op.kind!r} writes an edge-space value into node-space "
                f"buffer {op.out!r}; only reductions may cross edge→node (atomic-scatter condition)",
                where=f"op {op.render()}",
                program=prog.name,
            )
        elif has_node:
            report.add(
                "STG030",
                f"{schema.klass} op {op.kind!r} mixes edge-space and node-space operands "
                "without a reduction; per-edge feature math materializes E×F memory",
                where=f"op {op.render()}",
                program=prog.name,
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
    verify_write_hazards(fwd, report)
    verify_write_hazards(bwd, report)
    return report


def verify_plan(plan: "ProgramPlan") -> LintReport:
    """Run the full suite over a built :class:`ProgramPlan` (``repro lint``)."""
    return run_verifier(
        plan.traced.root,
        plan.fwd_prog,
        plan.bwd_prog,
        plan.grad_map,
        plan.wrt,
        plan.saved_spec,
        subject=plan.name or plan.plan_id,
        analysis=plan.analysis,
    )
