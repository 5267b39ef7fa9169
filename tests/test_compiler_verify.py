"""The compiler verifier: clean programs pass, mutated programs are caught.

Every STG0xx code in the registry is provoked by at least one mutation
here: a valid compiled plan is copied, corrupted in exactly one way, and
the matching diagnostic must fire.  A meta-test asserts the mutation table
covers the whole code registry, so adding a code without a triggering test
fails the suite.
"""

from __future__ import annotations

import copy

import pytest

from repro.compiler import (
    IMPLICIT_ONES,
    Stage,
    VNode,
    VerifyError,
    plan_cache,
)
from repro.compiler.diagnostics import CODES, LintReport, code_table
from repro.compiler.lower import CompileError
from repro.compiler.tir import TOp, TProgram
from repro.compiler.verify import verify_gradients, verify_tprogram, verify_vnode_dag


def _plan():
    """A known-good compiled plan (GCN-shaped; cached across tests)."""
    fn = lambda v: v.agg_sum(lambda nb: nb.vh * nb.vnorm) * v.vnorm  # noqa: E731
    return plan_cache().get_or_build(
        fn, feature_widths={"vh": "v", "vnorm": "s"}, name="verify_gcn"
    )


def _report() -> LintReport:
    return LintReport(subject="mutation")


# ---------------------------------------------------------------------------
# Positive paths
# ---------------------------------------------------------------------------
def test_clean_plan_has_empty_lint_attached():
    plan = _plan()
    assert isinstance(plan.lint, LintReport)
    assert plan.lint.ok()
    assert len(plan.lint) == 0


def test_plan_records_wrt_set():
    plan = _plan()
    assert plan.wrt == ("n_vh", "n_vnorm")


def test_raise_if_errors_raises_verify_error_as_compile_error():
    report = _report()
    report.add("STG010", "mutation")
    with pytest.raises(VerifyError) as exc:
        report.raise_if_errors()
    assert isinstance(exc.value, CompileError)
    assert exc.value.report is report
    assert "STG010" in str(exc.value)


def test_warnings_do_not_raise():
    report = _report()
    report.add("STG005", "mutation")
    report.raise_if_errors()
    assert report.ok()
    assert len(report.warnings) == 1


def test_code_table_matches_registry():
    rows = code_table()
    assert [code for code, _, _ in rows] == sorted(CODES)
    assert all(sev in ("error", "warning") for _, sev, _ in rows)


# ---------------------------------------------------------------------------
# Vertex-IR mutations (STG001..STG005)
# ---------------------------------------------------------------------------
def _mutate_stg001() -> LintReport:
    a = VNode("neg", (), Stage.SRC)
    b = VNode("neg", (a,), Stage.SRC)
    a.args = (b,)  # cycle a -> b -> a
    report = _report()
    verify_vnode_dag(b, report)
    return report


def _mutate_stg002() -> LintReport:
    src = VNode.feat("x", Stage.SRC)
    dst = VNode.feat("y", Stage.DST)
    # stored SRC disagrees with recomputed EDGE (SRC ∘ DST)
    bad = VNode("mul", (src, dst), Stage.SRC)
    report = _report()
    verify_vnode_dag(bad, report)
    return report


def _mutate_stg003() -> LintReport:
    dst = VNode.feat("y", Stage.DST)
    # bypass VNode.agg's constructor guard: a DST-stage aggregation body
    bad = VNode("agg", (dst,), Stage.DST, attrs={"agg_op": "sum", "direction": "in"})
    report = _report()
    verify_vnode_dag(bad, report)
    return report


def _mutate_stg004() -> LintReport:
    # two *distinct* leaf objects for the same (name, stage)
    x1 = VNode.feat("x", Stage.SRC)
    x2 = VNode.feat("x", Stage.SRC)
    root = VNode.binary("add", x1, x2)
    report = _report()
    verify_vnode_dag(root, report)
    return report


def _mutate_stg005() -> LintReport:
    src = VNode.feat("x", Stage.SRC)
    inner = VNode.agg("sum", src)  # DST-stage result
    other = VNode.feat("y", Stage.SRC)
    body = VNode.binary("mul", other, inner)  # pulled into EDGE space
    outer = VNode.agg("sum", body)
    report = _report()
    verify_vnode_dag(outer, report)
    return report


# ---------------------------------------------------------------------------
# Tensor-IR mutations (STG010..STG015)
# ---------------------------------------------------------------------------
def _mutate_stg010() -> LintReport:
    prog = copy.deepcopy(_plan().fwd_prog)
    first = prog.ops[0]
    prog.ops.append(TOp(first.kind, first.out, first.ins, first.attrs))
    report = _report()
    verify_tprogram(prog, report)
    return report


def _mutate_stg011() -> LintReport:
    prog = copy.deepcopy(_plan().fwd_prog)
    op = prog.ops[-1]
    prog.ops[-1] = TOp(op.kind, op.out, ("never_defined",) + op.ins[1:], op.attrs)
    report = _report()
    verify_tprogram(prog, report)
    return report


def _mutate_stg012() -> LintReport:
    prog = copy.deepcopy(_plan().fwd_prog)
    prog.outputs.append("never_defined_output")
    report = _report()
    verify_tprogram(prog, report)
    return report


def _mutate_stg013() -> LintReport:
    prog = copy.deepcopy(_plan().fwd_prog)
    prog.ops.append(TOp("frobnicate", "zz_unknown", ()))
    prog.spaces["zz_unknown"] = "node"
    report = _report()
    verify_tprogram(prog, report)
    return report


def _mutate_stg014() -> LintReport:
    prog = copy.deepcopy(_plan().fwd_prog)
    del prog.spaces[prog.ops[0].out]
    report = _report()
    verify_tprogram(prog, report)
    return report


def _mutate_stg015() -> LintReport:
    prog = TProgram(name="fold")
    prog.inputs = {"n_x": ("node", "x"), "n_s": ("node", "s")}
    prog.spaces = {"n_x": "node", "n_s": "node", "zz_s2": "node", "zz_out": "node"}
    # a scale the program computes is no structure a context could keep
    prog.ops = [
        TOp("ew", "zz_s2", ("n_s", "n_s"), {"op": "mul"}),
        TOp("spmm_scaled", "zz_out", ("zz_s2", "n_x"), {"direction": "in"}),
    ]
    prog.outputs = ["zz_out"]
    report = _report()
    verify_tprogram(prog, report)
    return report


def test_folded_scale_plan_is_clean():
    """A scale outside grad_features is folded, and the folded programs
    (the scale an input of both) pass the legality rule."""
    fn = lambda v: v.agg_sum(lambda nb: nb.vh * nb.vnorm) * v.vnorm  # noqa: E731
    plan = plan_cache().get_or_build(
        fn, feature_widths={"vh": "v", "vnorm": "s"}, grad_features={"vh"}, name="verify_fold"
    )
    assert [op.kind for op in plan.fwd_prog.ops] == ["spmm_scaled"]
    assert [op.kind for op in plan.bwd_prog.ops] == ["spmm_scaled_T"]
    assert plan.lint.ok() and len(plan.lint) == 0


def test_unused_input_is_a_warning_not_an_error():
    prog = copy.deepcopy(_plan().fwd_prog)
    prog.inputs["n_dead"] = ("node", "dead")
    prog.spaces["n_dead"] = "node"
    report = _report()
    verify_tprogram(prog, report)
    assert report.ok()
    assert {d.code for d in report.warnings} == {"STG012"}


def test_implicit_ones_outside_spmm_weight_slot_is_rejected():
    prog = copy.deepcopy(_plan().fwd_prog)
    prog.ops.append(TOp("ew", "zz_ones", (IMPLICIT_ONES,), {"op": "neg"}))
    prog.spaces["zz_ones"] = "node"
    report = _report()
    verify_tprogram(prog, report)
    assert "STG013" in report.codes()
    assert IMPLICIT_ONES in report.errors[0].message


def test_bad_ew_attr_and_direction_are_schema_violations():
    prog = copy.deepcopy(_plan().fwd_prog)
    inp = next(iter(prog.inputs))
    prog.ops.append(TOp("ew", "zz_noattr", (inp,)))  # missing required "op"
    prog.spaces["zz_noattr"] = prog.spaces[inp]
    prog.ops.append(TOp("spmm", "zz_dir", (IMPLICIT_ONES, inp), {"direction": "sideways"}))
    prog.spaces["zz_dir"] = "node"
    report = _report()
    verify_tprogram(prog, report)
    assert sum(1 for d in report.errors if d.code == "STG013") >= 2


# ---------------------------------------------------------------------------
# Gradient / State-Stack mutations (STG020..STG022)
# ---------------------------------------------------------------------------
def _mutate_stg020() -> LintReport:
    plan = _plan()
    report = _report()
    # empty grad_map: every declared-differentiable input lacks a gradient
    verify_gradients(plan.fwd_prog, plan.bwd_prog, {}, plan.wrt, report)
    return report


def _mutate_stg021() -> LintReport:
    plan = _plan()
    bwd = copy.deepcopy(plan.bwd_prog)
    bwd.inputs["zz_phantom"] = ("saved", "zz_phantom")
    bwd.spaces["zz_phantom"] = "node"
    report = _report()
    verify_gradients(plan.fwd_prog, bwd, plan.grad_map, plan.wrt, report,
                     saved_spec=plan.saved_spec)
    return report


def _mutate_stg022() -> LintReport:
    plan = _plan()
    bwd = copy.deepcopy(plan.bwd_prog)
    bwd.inputs["zz_seed"] = ("grad", "not_a_forward_output")
    bwd.spaces["zz_seed"] = "node"
    report = _report()
    verify_gradients(plan.fwd_prog, bwd, plan.grad_map, plan.wrt, report)
    return report


def test_saved_input_missing_from_saved_spec_is_stg021():
    plan = _plan()
    saved = [n for n, (k, _) in plan.bwd_prog.inputs.items() if k == "saved"]
    assert saved, "GCN backward must save at least one forward buffer"
    report = _report()
    verify_gradients(plan.fwd_prog, plan.bwd_prog, plan.grad_map, plan.wrt,
                     report, saved_spec=())
    assert {d.code for d in report.errors} == {"STG021"}


# ---------------------------------------------------------------------------
# Write-hazard mutations (STG030): checked on the tensor-program walk
# ---------------------------------------------------------------------------
def _mutate_stg030() -> LintReport:
    prog = TProgram(name="hazard")
    prog.inputs = {"e_w": ("edge", "w"), "n_x": ("node", "x")}
    prog.spaces = {"e_w": "edge", "n_x": "node", "zz_out": "node"}
    # an elementwise op writing an edge-space operand into node space:
    # exactly the write that needs an atomic scatter on real hardware
    prog.ops = [TOp("ew", "zz_out", ("e_w", "n_x"), {"op": "mul"})]
    prog.outputs = ["zz_out"]
    report = _report()
    verify_tprogram(prog, report)
    return report


def test_edge_node_mix_without_reduction_is_stg030():
    prog = TProgram(name="hazard_mix")
    prog.inputs = {"e_w": ("edge", "w"), "n_x": ("node", "x")}
    prog.spaces = {"e_w": "edge", "n_x": "node", "zz_out": "edge"}
    prog.ops = [TOp("ew", "zz_out", ("e_w", "n_x"), {"op": "mul"})]
    prog.outputs = ["zz_out"]
    report = _report()
    verify_tprogram(prog, report)
    assert {d.code for d in report.errors} == {"STG030"}


def test_reductions_may_cross_edge_to_node():
    prog = TProgram(name="hazard_ok")
    prog.inputs = {"e_w": ("edge", "w"), "n_x": ("node", "x")}
    prog.spaces = {"e_w": "edge", "n_x": "node", "zz_out": "node"}
    prog.ops = [TOp("spmm", "zz_out", ("e_w", "n_x"))]
    prog.outputs = ["zz_out"]
    report = _report()
    verify_tprogram(prog, report)
    assert report.ok() and len(report) == 0


# ---------------------------------------------------------------------------
# One mutation per code: the registry is fully covered
# ---------------------------------------------------------------------------
_MUTATIONS = {
    "STG001": _mutate_stg001,
    "STG002": _mutate_stg002,
    "STG003": _mutate_stg003,
    "STG004": _mutate_stg004,
    "STG005": _mutate_stg005,
    "STG010": _mutate_stg010,
    "STG011": _mutate_stg011,
    "STG012": _mutate_stg012,
    "STG013": _mutate_stg013,
    "STG014": _mutate_stg014,
    "STG015": _mutate_stg015,
    "STG020": _mutate_stg020,
    "STG021": _mutate_stg021,
    "STG022": _mutate_stg022,
    "STG030": _mutate_stg030,
}


@pytest.mark.parametrize("code", sorted(_MUTATIONS))
def test_mutation_triggers_code(code):
    report = _MUTATIONS[code]()
    assert code in report.codes(), report.render()
    expected_severity = CODES[code][0]
    assert any(d.severity == expected_severity for d in report.diagnostics if d.code == code)


def test_every_registered_code_has_a_mutation():
    from repro.compiler.diagnostics import CONCURRENCY_CODES

    # The STG2xx family belongs to the concurrency analyzer; its mutation
    # coverage lives in tests/test_analysis_lockcheck.py.
    assert set(_MUTATIONS) == set(CODES) - CONCURRENCY_CODES
