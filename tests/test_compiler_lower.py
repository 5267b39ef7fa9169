"""Lowering: sum-of-products decomposition and tensor-IR structure."""

from __future__ import annotations

import pytest

from repro.compiler.diagnostics import LintReport
from repro.compiler.lower import CompileError, lower_trace
from repro.compiler.symbols import trace, vfn
from repro.compiler.tir import TOp, TProgram
from repro.compiler.verify import verify_tprogram


def ops_of(prog, kind=None):
    return [op for op in prog.ops if kind is None or op.kind == kind]


def lower(fn, widths=None):
    return lower_trace(trace(fn), widths or {"h": "v", "norm": "s"}, name="t")


def verified(prog) -> LintReport:
    """The verifier's tensor-program report (lowering itself checks nothing)."""
    report = LintReport(subject=prog.name)
    verify_tprogram(prog, report)
    return report


def test_gcn_lowers_to_single_spmm():
    prog, _ = lower(lambda v: v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm)
    spmms = ops_of(prog, "spmm")
    assert len(spmms) == 1
    assert spmms[0].ins[0] == "__ones__"  # norms folded into the payload, not edge weights
    assert len(verified(prog)) == 0


def test_payload_stays_in_node_space():
    prog, _ = lower(lambda v: v.agg_sum(lambda nb: nb.h * nb.norm))
    assert not ops_of(prog, "gather_src")  # no E-space materialization for GCN


def test_sum_of_terms_distributes():
    """Σ(a + b) becomes two SpMMs added together (linearity)."""
    prog, _ = lower(
        lambda v: v.agg_sum(lambda nb: nb.h * nb.norm + nb.h),
        widths={"h": "v", "norm": "s"},
    )
    assert len(ops_of(prog, "spmm")) == 2
    adds = [op for op in prog.ops if op.kind == "ew" and op.attrs.get("op") == "add"]
    assert adds


def test_dst_factor_hoisted():
    """Σ(h_u · norm_v) = norm_v · Σ(h_u): dst factor multiplies after spmm."""
    prog, _ = lower(lambda v: v.agg_sum(lambda nb: nb.h * v.norm))
    spmm = ops_of(prog, "spmm")[0]
    post = [op for op in prog.ops if spmm.out in op.ins and op.kind == "ew"]
    assert post and post[0].attrs["op"] == "mul"


def test_constant_folded_into_coefficient():
    prog, _ = lower(lambda v: v.agg_sum(lambda nb: nb.h * 3.0))
    # coefficient multiplies the payload; no edge-space ops at all
    assert not ops_of(prog, "gather_src")
    assert 3.0 in prog.consts.values()


def test_division_by_constant():
    prog, _ = lower(lambda v: v.agg_sum(lambda nb: nb.h / 2.0))
    assert 0.5 in prog.consts.values()


def test_mean_divides_by_clamped_degree():
    prog, _ = lower(lambda v: v.agg_mean(lambda nb: nb.h))
    assert ops_of(prog, "in_deg_clamped")
    divs = [op for op in prog.ops if op.kind == "ew" and op.attrs.get("op") == "div"]
    assert divs


def test_max_lowering():
    prog, _ = lower(lambda v: v.agg_max(lambda nb: nb.h))
    assert ops_of(prog, "agg_max")


def test_max_with_edge_weight_rejected():
    with pytest.raises(CompileError, match="max aggregation"):
        lower(
            lambda v: v.agg_max(lambda nb: nb.h * nb.edge.w),
            widths={"h": "v"},
        )


def test_max_of_sum_rejected():
    with pytest.raises(CompileError):
        lower(lambda v: v.agg_max(lambda nb: nb.h + nb.h2), widths={"h": "v", "h2": "v"})


def test_edge_feature_becomes_spmm_weight():
    prog, _ = lower(lambda v: v.agg_sum(lambda nb: nb.h * nb.edge.w), widths={"h": "v"})
    spmm = ops_of(prog, "spmm")[0]
    assert spmm.ins[0] == "e_w"
    assert prog.inputs["e_w"] == ("edge", "w")


def test_pure_edge_weight_uses_segment_sum():
    prog, _ = lower(lambda v: v.agg_sum(lambda nb: nb.edge.w), widths={})
    assert ops_of(prog, "segment_sum")
    assert not ops_of(prog, "spmm")


def test_constant_only_body_uses_in_degree():
    prog, _ = lower(lambda v: v.agg_sum(lambda nb: nb.h * 0.0 + 2.0), widths={"h": "v"})
    assert ops_of(prog, "in_deg")


def test_vector_width_edge_computation_rejected():
    """A feature-wide per-edge value (src+dst of vectors) must be refused."""
    with pytest.raises(CompileError, match="scalar"):
        lower(
            lambda v: v.agg_sum(lambda nb: vfn.tanh(nb.h + v.h)),
            widths={"h": "v"},
        )


def test_distributable_edge_expression_avoids_gathers():
    """Σ s_u·(el_u + er_v) distributes to Σ(s·el) + er·Σ(s): the compiler
    keeps everything in node space — two SpMMs, zero per-edge buffers."""
    prog, _ = lower(
        lambda v: v.agg_sum(lambda nb: nb.s * (nb.el + v.er)),
        widths={"s": "v", "el": "s", "er": "s"},
    )
    assert not ops_of(prog, "gather_src") and not ops_of(prog, "gather_dst")
    assert len(ops_of(prog, "spmm")) == 2


def test_non_distributable_edge_computation_uses_gathers():
    """tanh(el_u + er_v) cannot distribute: it lowers to per-edge scalars."""
    prog, _ = lower(
        lambda v: v.agg_sum(lambda nb: nb.s * vfn.tanh(nb.el + v.er)),
        widths={"s": "v", "el": "s", "er": "s"},
    )
    assert ops_of(prog, "gather_src") and ops_of(prog, "gather_dst")
    spmm = ops_of(prog, "spmm")[0]
    assert spmm.ins[0] != "__ones__"  # the tanh score is the edge weight


def test_edge_softmax_lowering():
    def fn(v):
        alpha = v.edge_softmax(lambda nb: vfn.leaky_relu(nb.el + v.er))
        return v.agg_sum(lambda nb: nb.ft * alpha)

    prog, _ = lower(fn, widths={"el": "s", "er": "s", "ft": "v"})
    assert ops_of(prog, "edge_softmax")
    spmm = ops_of(prog, "spmm")[0]
    softmax_out = ops_of(prog, "edge_softmax")[0].out
    assert spmm.ins[0] == softmax_out


def test_nested_agg_is_dst_factor():
    """An inner aggregation used inside an outer body hoists as a dst factor."""
    def fn(v):
        inner = v.agg_sum(lambda nb: nb.h)
        return v.agg_sum(lambda nb: nb.h) * 1.0 + inner * 0.0

    prog, _ = lower(fn)
    assert len(verified(prog)) == 0


def test_bad_width_declaration_rejected():
    with pytest.raises(CompileError, match="width"):
        lower(lambda v: v.agg_sum(lambda nb: nb.h), widths={"h": "wide"})


def test_unary_const_folding():
    prog, _ = lower(lambda v: v.agg_sum(lambda nb: nb.h) * vfn.exp(trace_const()))
    # exp(0) folds to the constant 1.0
    assert any(abs(v - 1.0) < 1e-9 for v in prog.consts.values())


def trace_const():
    from repro.compiler.ir import VNode

    return VNode.const(0.0)


def test_program_render_readable():
    prog, _ = lower(lambda v: v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm)
    text = prog.render()
    assert "spmm" in text and "input n_h" in text and "return" in text


def test_redefinition_caught_by_validate():
    prog = TProgram("bad")
    prog.inputs["x"] = ("node", "x")
    prog.spaces["x"] = "node"
    prog.ops = [TOp("ew", "t0", ("x",), {"op": "neg"}), TOp("ew", "t0", ("x",), {"op": "neg"})]
    prog.outputs = ["t0"]
    errors = [d for d in verified(prog).errors if d.code == "STG010"]
    assert len(errors) == 1 and "redefined" in errors[0].message


def test_undefined_read_caught_by_validate():
    prog = TProgram("bad")
    prog.ops = [TOp("ew", "t0", ("ghost",), {"op": "neg"})]
    prog.outputs = ["t0"]
    errors = [d for d in verified(prog).errors if d.code == "STG011"]
    assert len(errors) == 1 and "'ghost'" in errors[0].message


def test_dangling_output_caught_by_verifier():
    prog = TProgram("bad")
    prog.inputs["x"] = ("node", "x")
    prog.spaces.update(x="node", t0="node")
    prog.ops = [TOp("ew", "t0", ("x",), {"op": "neg"})]
    prog.outputs = ["t0", "t1"]
    report = verified(prog)
    assert report.codes() == {"STG012"}
    assert [d.severity for d in report.diagnostics] == ["error"]
    assert "'t1'" in report.errors[0].message
