"""Differential testing: generated kernels vs the tensor-IR interpreter.

The interpreter executes the IR directly; codegen must agree bit-for-bit
on forward outputs, saved buffers, and every gradient — for hand-written
programs and for randomly generated ones.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.compiler import compile_vertex_program
from repro.compiler.interp import interpret_program, trace_execution
from repro.compiler.runtime import GraphContext
from repro.compiler.symbols import vfn
from repro.graph import StaticGraph


@pytest.fixture
def ctx(rng):
    g = nx.gnp_random_graph(15, 0.3, seed=12, directed=True)
    return GraphContext(StaticGraph.from_networkx(g))


def _bindings(prog, ctx, rng, f=3):
    out = {}
    for buf, (kind, _feat) in prog.fwd_prog.inputs.items():
        width = prog._widths[buf]
        if kind == "edge":
            out[buf] = rng.standard_normal(ctx.num_edges).astype(np.float32)
        elif width == "s":
            out[buf] = rng.standard_normal(ctx.num_nodes).astype(np.float32)
        else:
            out[buf] = rng.standard_normal((ctx.num_nodes, f)).astype(np.float32)
    return out


PROGRAMS = {
    "gcn": (
        lambda v: v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm,
        {"h": "v", "norm": "s"},
    ),
    "mean_tanh": (
        lambda v: vfn.tanh(v.agg_mean(lambda nb: nb.h)),
        {"h": "v"},
    ),
    "two_terms": (
        lambda v: v.agg_sum(lambda nb: nb.a * 2.0 + nb.b * nb.s),
        {"a": "v", "b": "v", "s": "s"},
    ),
    "gat": (
        lambda v: v.agg_sum(
            lambda nb: nb.ft * v.edge_softmax(lambda nb2: vfn.leaky_relu(nb2.el + v.er))
        ),
        {"ft": "v", "el": "s", "er": "s"},
    ),
    "bidirectional": (
        lambda v: v.agg_mean(lambda nb: nb.h) + v.agg_mean_out(lambda nb: nb.h),
        {"h": "v"},
    ),
    "maxpool": (
        lambda v: v.agg_max(lambda nb: nb.h),
        {"h": "v"},
    ),
}


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_forward_matches_interpreter(name, ctx, rng):
    fn, widths = PROGRAMS[name]
    prog = compile_vertex_program(fn, widths, name=f"diff_{name}")
    binds = _bindings(prog, ctx, rng)
    compiled_out, _ = prog.forward(
        ctx,
        {feat: binds[buf] for buf, (k, feat) in prog.fwd_prog.inputs.items() if k == "node"},
        {
            feat: ctx.edge_grad_to_labels(binds[buf])
            for buf, (k, feat) in prog.fwd_prog.inputs.items()
            if k == "edge"
        }
        or None,
    )
    interp_out = interpret_program(prog.fwd_prog, ctx, binds)[0]
    assert np.allclose(compiled_out, interp_out, atol=1e-6), name


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_backward_matches_interpreter(name, ctx, rng):
    fn, widths = PROGRAMS[name]
    prog = compile_vertex_program(fn, widths, name=f"diffb_{name}")
    binds = _bindings(prog, ctx, rng)
    node_feats = {feat: binds[buf] for buf, (k, feat) in prog.fwd_prog.inputs.items() if k == "node"}
    edge_feats = {
        feat: ctx.edge_grad_to_labels(binds[buf])
        for buf, (k, feat) in prog.fwd_prog.inputs.items()
        if k == "edge"
    } or None
    out, saved = prog.forward(ctx, node_feats, edge_feats)
    gout = rng.standard_normal(np.asarray(out).shape).astype(np.float32)
    compiled_grads = prog.backward(ctx, gout, saved)

    # interpreter path: run fwd trace for saved values, then bwd program
    fwd_env = trace_execution(prog.fwd_prog, ctx, binds)
    bwd_binds = {"g_out": gout}
    for name_, (kind, ref) in prog.bwd_prog.inputs.items():
        if kind == "saved":
            bwd_binds[name_] = fwd_env[ref]
    interp_out = interpret_program(prog.bwd_prog, ctx, bwd_binds)
    interp_by_buf = dict(zip(prog.bwd_prog.outputs, interp_out))
    for buf, gbuf in prog.grad_map.items():
        kind, feat = prog.fwd_prog.inputs[buf]
        expected = interp_by_buf[gbuf]
        if kind == "edge":
            expected = ctx.edge_grad_to_labels(np.asarray(expected))
        assert np.allclose(compiled_grads[feat], expected, atol=1e-6), (name, feat)


@pytest.mark.parametrize("engine", ["interpreter"])
@pytest.mark.parametrize("name", list(PROGRAMS))
def test_engine_axis_matches_kernel_bitwise(name, engine, ctx, rng):
    """Engine axis: every registered engine agrees with ``kernel`` bitwise.

    Stronger than the interpreter differentials above (allclose): engines
    execute the same op order against the same runtime primitives, so
    outputs, saved buffers, and gradients must be bit-for-bit equal.
    """
    fn, widths = PROGRAMS[name]
    prog = compile_vertex_program(fn, widths, name=f"diffe_{name}")
    binds = _bindings(prog, ctx, rng)
    node_feats = {
        feat: binds[buf] for buf, (k, feat) in prog.fwd_prog.inputs.items() if k == "node"
    }
    edge_feats = {
        feat: ctx.edge_grad_to_labels(binds[buf])
        for buf, (k, feat) in prog.fwd_prog.inputs.items()
        if k == "edge"
    } or None
    out_k, saved_k = prog.forward(ctx, node_feats, edge_feats)
    gout = rng.standard_normal(np.asarray(out_k).shape).astype(np.float32)
    grads_k = prog.backward(ctx, gout, saved_k)

    other = prog.with_engine(engine)
    out_o, saved_o = other.forward(ctx, node_feats, edge_feats)
    grads_o = other.backward(ctx, gout, saved_o)

    assert np.array_equal(np.asarray(out_k), np.asarray(out_o)), name
    assert sorted(saved_k) == sorted(saved_o)
    for buf in saved_k:
        assert np.array_equal(saved_k[buf], saved_o[buf]), (name, buf)
    assert sorted(grads_k) == sorted(grads_o)
    for feat in grads_k:
        assert np.array_equal(grads_k[feat], grads_o[feat]), (name, feat)


_term = st.tuples(
    st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 0.05),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)


@given(terms=st.lists(_term, min_size=1, max_size=3), seed=st.integers(0, 10**5))
@settings(max_examples=25, deadline=None)
def test_random_programs_differential(terms, seed):
    """Property: compiled == interpreted on random sum-of-products bodies."""
    assume(any(h or s for _, h, s, _ in terms))
    from repro.compiler.ir import VNode

    def fn(v):
        def body(nb):
            expr = None
            for coef, use_h, use_s, use_d in terms:
                t = None
                if use_h:
                    t = nb.h
                if use_s:
                    t = nb.s if t is None else t * nb.s
                if use_d:
                    t = v.d if t is None else t * v.d
                t = VNode.const(coef) if t is None else t * coef
                expr = t if expr is None else expr + t
            return expr

        return v.agg_sum(body)

    g = nx.gnp_random_graph(12, 0.3, seed=seed, directed=True)
    ctx = GraphContext(StaticGraph.from_networkx(g))
    rng = np.random.default_rng(seed)
    prog = compile_vertex_program(fn, {"h": "v", "s": "s", "d": "s"}, name="diff_rand")
    binds = _bindings(prog, ctx, rng)
    node_feats = {feat: binds[buf] for buf, (k, feat) in prog.fwd_prog.inputs.items()}
    compiled, _ = prog.forward(ctx, node_feats)
    interp = interpret_program(prog.fwd_prog, ctx, binds)[0]
    assert np.allclose(compiled, interp, atol=1e-6)
