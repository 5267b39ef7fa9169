"""The vertex-centric compiler (Seastar core, paper §IV/§V).

A user writes the per-vertex forward logic of a GNN layer::

    def gcn(v):
        return v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm
    # or, generator style:
    def gcn(v):
        return sum(nb.h * nb.norm for nb in v.innbs) * v.norm

The compiler pipeline then mirrors Seastar's:

1. **trace** — execute the function with symbolic proxies, producing a
   vertex-level IR DAG whose nodes carry a *stage* (SRC / DST / EDGE).
2. **lower** — normalize aggregation bodies to sum-of-products, split each
   term into a source-stage payload (kept in node space, never materialized
   per edge), edge-stage scalar weights, and hoisted destination factors;
   lower everything to a linear tensor IR whose aggregation op is a CSR
   SpMM — the simulated-device analogue of Seastar's fused
   feature-adaptive CUDA kernel.
3. **autodiff** — build the backward tensor IR by VJP rules; the SpMM's
   gradient runs over the *backward* CSR, which is exactly why the graph
   abstraction carries both orientations with shared edge labels.
4. **passes** — dead-code elimination and the *saved-tensor analysis*: the
   set of forward values the backward program actually reads.  This is the
   State Stack memory optimization ("STGraph compares the backward and
   forward intermediate representations to determine which features need to
   be stored in the state-stack").
5. **codegen** — emit inspectable Python kernel source, one fused kernel
   per pass, and compile it through the device's kernel launcher.
6. **plan** — package everything into an immutable
   :class:`~repro.compiler.plan.ProgramPlan`, memoized in the process-wide
   :func:`~repro.compiler.plan.plan_cache` so identical programs compile
   once; execution engines (:mod:`repro.core.engine`) run plans.
"""

from repro.compiler.diagnostics import CODES, Diagnostic, LintReport, VerifyError, code_table
from repro.compiler.ir import Stage, VNode
from repro.compiler.symbols import Vertex, trace
from repro.compiler.plan import PlanCache, ProgramPlan, plan_cache, plan_key
from repro.compiler.program import VertexProgram, compile_vertex_program
from repro.compiler.interp import interpret_program, trace_execution
from repro.compiler.tir import IMPLICIT_ONES
from repro.compiler.verify import (
    run_verifier,
    set_verification,
    verification_disabled,
    verification_enabled,
    verify_plan,
)
from repro.compiler.viz import tensor_ir_to_dot, vertex_ir_to_dot

__all__ = [
    "Stage",
    "VNode",
    "Vertex",
    "trace",
    "ProgramPlan",
    "PlanCache",
    "plan_cache",
    "plan_key",
    "VertexProgram",
    "compile_vertex_program",
    "interpret_program",
    "trace_execution",
    "vertex_ir_to_dot",
    "tensor_ir_to_dot",
    "IMPLICIT_ONES",
    "CODES",
    "code_table",
    "Diagnostic",
    "LintReport",
    "VerifyError",
    "run_verifier",
    "verify_plan",
    "set_verification",
    "verification_enabled",
    "verification_disabled",
]
