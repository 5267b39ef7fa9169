"""Tensor-IR interpreter: the compiler's differential-testing oracle.

Executes a :class:`~repro.compiler.tir.TProgram` directly, op by op,
against the same runtime primitives the generated kernels call — but with
no codegen, no ``exec``, no kernel cache.  Anything the interpreter and a
compiled kernel disagree on is by construction a codegen bug, which makes
this the reference semantics for the differential tests in
``tests/test_compiler_differential.py``.

Also handy interactively: ``trace_execution`` returns every intermediate
buffer for inspection.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.compiler.runtime import RUNTIME_NAMESPACE, GraphContext
from repro.compiler.tir import IMPLICIT_ONES, OP_SCHEMAS, TOp, TProgram

__all__ = ["interpret_program", "trace_execution"]


def _eval_op(op: TOp, ctx: GraphContext, env: dict[str, Any]) -> Any:
    schema = OP_SCHEMAS.get(op.kind)
    if schema is None:
        raise ValueError(f"interpreter: unknown op kind {op.kind!r}")
    args = [None if n == IMPLICIT_ONES else env[n] for n in op.ins]
    if schema.klass != "elementwise":
        args = [ctx] + args
    if op.kind == "ew":
        fn = RUNTIME_NAMESPACE[f"ew_{op.attrs['op']}"]
        kwargs = {k: v for k, v in op.attrs.items() if k != "op"}
    else:
        fn, kwargs = RUNTIME_NAMESPACE[op.kind], op.attrs
    return fn(*args, **kwargs)


def trace_execution(
    prog: TProgram,
    ctx: GraphContext,
    bindings: Mapping[str, np.ndarray],
) -> dict[str, Any]:
    """Run ``prog`` and return *every* buffer (inputs, consts, temps)."""
    env: dict[str, Any] = {}
    for buf in prog.inputs:
        if buf not in bindings:
            raise KeyError(f"interpreter: missing binding for input {buf!r}")
        env[buf] = bindings[buf]
    for buf, value in prog.consts.items():
        env[buf] = value
    for op in prog.ops:
        env[op.out] = _eval_op(op, ctx, env)
    return env


def interpret_program(
    prog: TProgram,
    ctx: GraphContext,
    bindings: Mapping[str, np.ndarray],
) -> list[Any]:
    """Evaluate ``prog`` and return its outputs in declaration order."""
    env = trace_execution(prog, ctx, bindings)
    return [env[name] for name in prog.outputs]
