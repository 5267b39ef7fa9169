"""CSE / DCE / saved-tensor analysis + codegen modes + kernel cache."""

from __future__ import annotations

import numpy as np
import networkx as nx
import pytest

from repro.compiler import compile_vertex_program
from repro.compiler.diagnostics import LintReport
from repro.compiler.lower import lower_trace
from repro.compiler.passes import cse, dce, fold_scales, saved_analysis
from repro.compiler.runtime import GraphContext
from repro.compiler.symbols import trace
from repro.compiler.tir import TOp, TProgram
from repro.compiler.verify import verify_tprogram
from repro.device import current_device
from repro.graph import StaticGraph


@pytest.fixture
def ctx(rng):
    g = nx.gnp_random_graph(15, 0.3, seed=5, directed=True)
    return GraphContext(StaticGraph.from_networkx(g))


def test_cse_merges_identical_ops():
    prog = TProgram("p")
    prog.inputs["x"] = ("node", "x")
    prog.spaces["x"] = "node"
    prog.ops = [
        TOp("ew", "a", ("x",), {"op": "neg"}),
        TOp("ew", "b", ("x",), {"op": "neg"}),  # duplicate
        TOp("ew", "c", ("a", "b"), {"op": "add"}),
    ]
    prog.outputs = ["c"]
    removed = cse(prog)
    assert removed == 1
    assert prog.ops[-1].ins == ("a", "a")


def test_cse_respects_attrs():
    prog = TProgram("p")
    prog.inputs["x"] = ("node", "x")
    prog.spaces["x"] = "node"
    prog.ops = [
        TOp("ew", "a", ("x",), {"op": "neg"}),
        TOp("ew", "b", ("x",), {"op": "relu"}),
    ]
    prog.outputs = ["b"]
    assert cse(prog) == 0


def test_dce_removes_unreachable():
    prog = TProgram("p")
    prog.inputs["x"] = ("node", "x")
    prog.inputs["y"] = ("node", "y")
    prog.spaces.update({"x": "node", "y": "node"})
    prog.ops = [
        TOp("ew", "used", ("x",), {"op": "neg"}),
        TOp("ew", "dead", ("y",), {"op": "neg"}),
    ]
    prog.outputs = ["used"]
    assert dce(prog) == 1
    assert "y" not in prog.inputs


def test_gcn_shared_norm_is_cse_candidate():
    """v.norm * v.norm in the self-loop term computes norm² once."""
    traced = trace(
        lambda v: v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm + v.h * v.norm * v.norm
    )
    prog, _ = lower_trace(traced, {"h": "v", "norm": "s"}, name="g")
    before = len(prog.ops)
    cse(prog)
    dce(prog)
    report = LintReport()
    verify_tprogram(prog, report)
    assert len(report) == 0
    assert len(prog.ops) <= before


def test_saved_analysis_prunes_when_grads_restricted():
    """The State Stack optimization: wrt={h} saves only norm; wrt=all saves more."""
    fn = lambda v: v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm  # noqa: E731
    slim = compile_vertex_program(
        fn, feature_widths={"h": "v", "norm": "s"}, grad_features={"h"}, name="slim"
    )
    fat = compile_vertex_program(
        fn, feature_widths={"h": "v", "norm": "s"}, name="fat"
    )
    assert set(slim.saved_spec) == {"n_norm"}
    assert len(fat.saved_spec) > len(slim.saved_spec)
    analysis = saved_analysis(slim.fwd_prog, slim.bwd_prog)
    assert "n_h" in analysis.pruned  # h itself is never retained
    assert "state stack keeps" in analysis.summary()


def test_state_stack_opt_off_saves_everything():
    fn = lambda v: v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm  # noqa: E731
    off = compile_vertex_program(
        fn, feature_widths={"h": "v", "norm": "s"}, grad_features={"h"},
        name="off", state_stack_opt=False,
    )
    assert set(off.saved_spec) == set(off.analysis.all_forward_buffers)


def test_kernel_cache_reuses_compiled_kernels():
    from repro.compiler import plan_cache

    fn = lambda v: v.agg_sum(lambda nb: nb.h)  # noqa: E731
    p1 = compile_vertex_program(fn, feature_widths={"h": "v"}, name="c1")
    hits, misses = plan_cache().hits, plan_cache().misses
    p2 = compile_vertex_program(fn, feature_widths={"h": "v"}, name="c2")
    assert plan_cache().hits == hits + 1  # plan-cache hit
    assert plan_cache().misses == misses  # nothing new compiled
    assert p1 is p2
    assert p1.fwd_kernel is p2.fwd_kernel


def test_kernel_cache_distinguishes_options():
    fn = lambda v: v.agg_sum(lambda nb: nb.h)  # noqa: E731
    p1 = compile_vertex_program(fn, feature_widths={"h": "v"}, name="a")
    p2 = compile_vertex_program(fn, feature_widths={"h": "v"}, name="b", state_stack_opt=False)
    assert p1.plan_id != p2.plan_id  # different plan key …
    assert p1.fwd_kernel is not p2.fwd_kernel  # … and a different saved set/kernel


def test_generated_source_is_inspectable():
    p = compile_vertex_program(
        lambda v: v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm,
        feature_widths={"h": "v", "norm": "s"}, grad_features={"h"}, name="srcchk",
    )
    # Entry points are content-addressed (plan id), so cached source is
    # deterministic no matter which layer compiled the plan first.
    assert f"def {p.plan_id}_fwd(ctx, env):" in p.forward_source
    # norm is outside grad_features, so it is folded into the operator
    assert "spmm_scaled(ctx, n_norm, n_h," in p.forward_source
    assert "spmm_scaled_T(ctx, n_norm, g_out," in p.backward_source
    assert "return" in p.backward_source


def test_forward_and_backward_are_one_launch_each(ctx, rng):
    """Compilation always fuses: a pass is one kernel launch."""
    totals = current_device().totals
    launches = lambda: totals.read().calls("device.kernel_launch")  # noqa: E731
    fn = lambda v: v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm  # noqa: E731
    prog = compile_vertex_program(fn, {"h": "v", "norm": "s"}, {"h"}, name="fl")
    h = rng.standard_normal((ctx.num_nodes, 3)).astype(np.float32)
    norm = np.ones(ctx.num_nodes, dtype=np.float32)
    before = launches()
    out, saved = prog.forward(ctx, {"h": h, "norm": norm})
    assert launches() - before == 1
    before = launches()
    prog.backward(ctx, np.ones_like(out), saved)
    assert launches() - before == 1


def test_grad_features_unknown_rejected():
    from repro.compiler.lower import CompileError

    with pytest.raises(CompileError, match="not read"):
        compile_vertex_program(
            lambda v: v.agg_sum(lambda nb: nb.h),
            feature_widths={"h": "v"}, grad_features={"ghost"}, name="bad",
        )


def test_describe_is_complete():
    p = compile_vertex_program(
        lambda v: v.agg_sum(lambda nb: nb.h), feature_widths={"h": "v"}, name="desc"
    )
    text = p.describe()
    assert "vertex IR" in text and "forward" in text and "backward" in text and "state stack" in text


@pytest.mark.parametrize(
    ("fn", "widths", "grads", "folded"),
    [
        (lambda v: v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm + v.h * v.norm * v.norm,
         {"h": "v", "norm": "s"}, {"h"}, ["spmm_scaled", "diag_mul", "ew"]),
        (lambda v: -(v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm), {"h": "v", "norm": "s"}, {"h"},
         ["spmm_scaled", "ew"]),
        # norm differentiable: not a structural scale, nothing folds
        (lambda v: v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm, {"h": "v", "norm": "s"}, {"h", "norm"}, None),
        # one-sided scale: no symmetric product to fold
        (lambda v: v.agg_sum(lambda nb: nb.h) * v.norm, {"h": "v", "norm": "s"}, {"h"}, None),
        # an edge-weighted product keeps its broadcasts
        (lambda v: v.agg_sum(lambda nb: nb.h * nb.norm * nb.edge.w) * v.norm, {"h": "v", "norm": "s"}, {"h"},
         None),
    ],
    ids=["self_loops", "cheb", "norm_differentiable", "one_sided", "edge_weighted"],
)
def test_fold_scales_folds_only_a_symmetric_read_only_scale(fn, widths, grads, folded):
    prog, w = lower_trace(trace(fn), widths, name="fold")
    cse(prog)
    dce(prog)
    before = [op.kind for op in prog.ops]
    wrt = {buf for buf, (_k, feat) in prog.inputs.items() if feat in grads}
    count = fold_scales(prog, w, wrt)
    dce(prog)
    if folded is None:
        assert count == 0 and [op.kind for op in prog.ops] == before
    else:
        assert count == 1 and [op.kind for op in prog.ops] == folded
    report = LintReport(subject="fold")
    verify_tprogram(prog, report)
    assert report.ok() and len(report) == 0
