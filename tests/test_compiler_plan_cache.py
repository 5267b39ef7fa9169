"""The process-wide PlanCache: hit/miss semantics, key stability, sharing.

The cache is process-wide while every test runs on a fresh device, so all
assertions are *deltas* against counter snapshots — never assumptions about
a cold cache.
"""

from __future__ import annotations

import pytest

from repro.compiler import compile_vertex_program, plan_cache, plan_key
from repro.compiler.plan import PlanCache
from repro.compiler.symbols import trace
from repro.device import current_device
from repro.nn import (
    A3TGCN,
    DCRNN,
    ChebConv,
    EvolveGCNO,
    GATConv,
    GConvGRU,
    GConvLSTM,
    GCNConv,
    RGCNConv,
    SAGEConv,
    TGCN,
)


def test_miss_then_hit_counters():
    # A structure no layer uses, so the first request this process is a miss.
    fn = lambda v: v.agg_sum(lambda nb: nb.pcq * nb.edge.pcw) * v.pcq  # noqa: E731
    stats = plan_cache().stats()
    p1 = compile_vertex_program(fn, feature_widths={"pcq": "v"}, name="pc1")
    after_miss = plan_cache().stats()
    assert after_miss["misses"] == stats["misses"] + 1
    assert after_miss["size"] == stats["size"] + 1
    p2 = compile_vertex_program(fn, feature_widths={"pcq": "v"}, name="pc2")
    after_hit = plan_cache().stats()
    assert after_hit["hits"] == after_miss["hits"] + 1
    assert after_hit["misses"] == after_miss["misses"]
    assert after_hit["size"] == after_miss["size"]
    assert p1.plan is p2.plan


def test_key_stable_across_identical_retraces():
    # Two distinct function objects, identical structure → identical key.
    def first(v):
        return v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm

    def second(v):
        return v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm

    widths = {"h": "v", "norm": "s"}
    k1 = plan_key(trace(first).signature(), widths, {"h"}, True, True, True)
    k2 = plan_key(trace(second).signature(), widths, {"h"}, True, True, True)
    assert k1 == k2
    p1 = compile_vertex_program(first, feature_widths=widths, grad_features={"h"})
    p2 = compile_vertex_program(second, feature_widths=widths, grad_features={"h"})
    assert p1.plan_id == p2.plan_id == k1
    assert p1.plan is p2.plan


@pytest.mark.parametrize(
    "variant",
    [
        {"fused": False},
        {"state_stack_opt": False},
        {"optimize": False},
        {"dtype": "float64"},
        {"grad_features": None},
    ],
)
def test_key_invalidation_on_option_change(variant):
    fn = lambda v: v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm  # noqa: E731
    widths = {"h": "v", "norm": "s"}
    base = compile_vertex_program(fn, feature_widths=widths, grad_features={"h"})
    misses = plan_cache().misses
    kwargs = {"grad_features": {"h"}, **variant}
    other = compile_vertex_program(fn, feature_widths=widths, **kwargs)
    assert other.plan_id != base.plan_id
    # Re-requesting the variant is a hit, not another build.
    again = compile_vertex_program(fn, feature_widths=widths, **kwargs)
    assert again.plan is other.plan
    assert plan_cache().misses <= misses + 1


def test_name_does_not_partition_the_cache():
    """Structurally identical programs share one plan across display names —
    and across layer widths, since declared widths are symbolic."""
    assert GCNConv(5, 3).plan_id == GCNConv(7, 11, bias=False).plan_id


def test_gate_convolutions_share_one_plan():
    """TGCN/A3TGCN/GConvGRU/GConvLSTM gates and EvolveGCN-O all run the same
    self-loop GCN vertex program → one plan id, compiled once per process."""
    reference = GCNConv(4, 4).plan_id
    tgcn = TGCN(4, 4)
    gru = GConvGRU(4, 4)
    lstm = GConvLSTM(4, 4)
    a3 = A3TGCN(4, 4, periods=2)
    evolve = EvolveGCNO(4, 4)
    gate_ids = {
        tgcn.conv_z.plan_id,
        tgcn.conv_r.plan_id,
        tgcn.conv_h.plan_id,
        gru.conv_xz.plan_id,
        gru.conv_hh.plan_id,
        lstm.conv_xi.plan_id,
        lstm.conv_ho.plan_id,
        a3.tgcn.conv_z.plan_id,
        evolve.program.plan_id,
    }
    assert gate_ids == {reference}


def test_model_construction_after_warm_gcn_builds_nothing():
    GCNConv(4, 4)  # warm the shared gate plan
    misses = plan_cache().misses
    TGCN(4, 4)
    GConvGRU(4, 4)
    assert plan_cache().misses == misses


ZOO = [
    ("gcn", lambda: GCNConv(4, 4)),
    ("gcn_plain", lambda: GCNConv(4, 4, add_self_loops=False)),
    ("gcn_weighted", lambda: GCNConv(4, 4, edge_weighted=True, add_self_loops=False)),
    ("gat", lambda: GATConv(4, 4)),
    ("sage", lambda: SAGEConv(4, 4)),
    ("cheb", lambda: ChebConv(4, 4, k=3)),
    ("rgcn", lambda: RGCNConv(4, 4, num_relations=2)),
    ("tgcn", lambda: TGCN(4, 4)),
    ("gconv_gru", lambda: GConvGRU(4, 4)),
    ("gconv_lstm", lambda: GConvLSTM(4, 4)),
    ("a3tgcn", lambda: A3TGCN(4, 4, periods=2)),
    ("evolve_gcn", lambda: EvolveGCNO(4, 4)),
    ("dcrnn", lambda: DCRNN(4, 4, k=2)),
]


@pytest.mark.parametrize("name,factory", ZOO, ids=[n for n, _ in ZOO])
def test_second_instance_compiles_nothing(name, factory):
    """The acceptance criterion: re-instantiating any layer with an identical
    configuration performs zero new plan builds and zero kernel compiles."""
    factory()  # first instance may warm the cache
    launcher = current_device().launcher
    misses, compiles = plan_cache().misses, launcher.compile_count
    factory()
    assert plan_cache().misses == misses
    assert launcher.compile_count == compiles


def test_launcher_dedups_identical_source_across_caches():
    """Rebuilding a plan (e.g. in another cache instance) regenerates
    byte-identical source; the launcher hands back the existing kernel."""
    fn = lambda v: v.agg_sum(lambda nb: nb.ddq) * v.ddq  # noqa: E731
    launcher = current_device().launcher
    private1, private2 = PlanCache(), PlanCache()
    p1 = private1.get_or_build(fn, feature_widths={"ddq": "v"}, name="dd1")
    compiles, dedups = launcher.compile_count, launcher.source_dedup_hits
    p2 = private2.get_or_build(fn, feature_widths={"ddq": "v"}, name="dd2")
    assert p2.plan_id == p1.plan_id
    assert launcher.compile_count == compiles  # nothing recompiled …
    assert launcher.source_dedup_hits == dedups + 2  # … fwd + bwd deduped
    assert p2.fwd_kernel is p1.fwd_kernel
    assert p2.bwd_kernel is p1.bwd_kernel


def test_plans_snapshot_and_get():
    p = compile_vertex_program(
        lambda v: v.agg_sum(lambda nb: nb.h), feature_widths={"h": "v"}
    )
    assert plan_cache().get(p.plan_id) is p.plan
    assert p.plan in plan_cache().plans()
    assert len(plan_cache()) == plan_cache().stats()["size"]


def test_misses_time_the_compile_phase():
    """A cache miss is one ``compiler.plan_build`` interval (category
    "compile"); hits record none."""
    totals = current_device().totals
    fn = lambda v: v.agg_sum(lambda nb: nb.tmq * nb.tmr)  # noqa: E731
    widths = {"tmq": "v", "tmr": "s"}
    compile_vertex_program(fn, feature_widths=widths)
    cold = totals.read()
    assert cold.seconds("compile") > 0
    assert cold.calls("compiler.plan_build") == 1
    compile_vertex_program(fn, feature_widths=widths)
    assert totals.read().seconds("compile") == cold.seconds("compile")


def test_signature_name_attr_collision_resolved():
    """Distinct DAGs must never share a structural signature.

    The old ``{name}{attrs}`` concatenation let a leaf literally named
    ``"xslope=0.01"`` collide with a leaf ``"x"`` carrying
    ``attrs={"slope": 0.01}`` — same cache key, wrong plan served.
    """
    from repro.compiler import Stage, VNode

    plain = VNode("feat", (), Stage.SRC, name="xslope=0.01")
    attred = VNode("feat", (), Stage.SRC, name="x", attrs={"slope": 0.01})
    assert plain.signature() != attred.signature()
    assert "name=" in plain.signature() and "|attrs=" in plain.signature()
