"""IR visualization output."""

from __future__ import annotations

import pytest

from repro.compiler import compile_vertex_program
from repro.compiler.symbols import trace
from repro.compiler.viz import tensor_ir_to_dot, vertex_ir_to_dot


@pytest.fixture
def gcn_prog():
    return compile_vertex_program(
        lambda v: v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm,
        feature_widths={"h": "v", "norm": "s"},
        grad_features={"h"},
        name="viz_gcn",
    )


def test_vertex_ir_dot_structure():
    traced = trace(lambda v: v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm)
    dot = vertex_ir_to_dot(traced.root, name="gcn")
    assert dot.startswith('digraph "gcn"')
    assert dot.rstrip().endswith("}")
    assert "agg" in dot and "mul" in dot
    assert dot.count("->") == sum(len(n.args) for n in traced.root.topo())
    # all three stages appear, color-coded
    assert "[src]" in dot and "[dst]" in dot


def test_tensor_ir_dot_structure(gcn_prog):
    dot = tensor_ir_to_dot(gcn_prog.fwd_prog)
    assert "spmm" in dot
    assert "node[h]" in dot  # input binding shown
    assert "penwidth=3" in dot  # output highlighted
    assert dot.count("digraph") == 1


def test_backward_ir_dot(gcn_prog):
    dot = tensor_ir_to_dot(gcn_prog.bwd_prog)
    assert "spmm_scaled_T" in dot
    assert "g_out" in dot


def test_dot_escapes_quotes():
    traced = trace(lambda v: v.agg_sum(lambda nb: nb.h))
    dot = vertex_ir_to_dot(traced.root, name='a"b')
    assert 'digraph "a\\"b"' in dot


def test_dot_valid_for_every_library_layer():
    from repro.nn import DConv, GATConv, GCNConv, SAGEConv

    for layer in (GCNConv(4, 4), GATConv(4, 4), SAGEConv(4, 4), DConv(4, 4)):
        dot = tensor_ir_to_dot(layer.program.fwd_prog)
        assert dot.count("{") == dot.count("}")
        assert "->" in dot
