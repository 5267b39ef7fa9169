"""Kernel source generation.

Emits Python source from tensor programs — the simulated-device analogue of
Seastar's CUDA codegen.  The source is genuine generated code: it is kept on
the :class:`~repro.device.kernel.CompiledKernel` for inspection, compiled
with ``compile()``/``exec`` (errors surface as real syntax/name errors), and
executed through the device's kernel launcher.

Two modes:

* **fused** (default) — the whole pass is a single kernel; intermediates
  live and die inside one launch, exactly like Seastar's fused kernels.
* **unfused** — one tiny kernel per tensor-IR op, launched individually
  (the fusion ablation: same math, per-op launch overhead and materialized
  intermediates).
"""

from __future__ import annotations

from repro.compiler.tir import IMPLICIT_ONES, TOp, TProgram
from repro.device.kernel import CompiledKernel

__all__ = [
    "generate_forward_source",
    "generate_backward_source",
    "compile_program",
    "generate_op_kernels",
]

_CTX_CALLS = {
    "spmm",
    "spmm_T",
    "segment_sum",
    "segment_sum_dst",
    "scatter_src",
    "gather_src",
    "gather_dst",
    "edge_softmax",
    "edge_softmax_bwd",
    "edge_dot",
    "agg_max",
    "agg_max_bwd",
    "in_deg",
    "in_deg_clamped",
    "out_deg",
    "out_deg_clamped",
    "ones_node",
    "segment_max",
}
_PLAIN_CALLS = {"colsum", "relu_mask", "leaky_mask"}


def _render_call(op: TOp) -> str:
    """One IR op as a runtime-primitive call expression."""
    args = ["None" if n == IMPLICIT_ONES else n for n in op.ins]
    if op.kind == "ew":
        fn = f"ew_{op.attrs['op']}"
        extra = [f"{k}={v!r}" for k, v in sorted(op.attrs.items()) if k != "op"]
        return f"{fn}({', '.join(args + extra)})"
    if op.kind in _CTX_CALLS:
        extra = [f"{k}={v!r}" for k, v in sorted(op.attrs.items())]
        return f"{op.kind}({', '.join(['ctx'] + args + extra)})"
    if op.kind in _PLAIN_CALLS:
        extra = [f"{k}={v!r}" for k, v in sorted(op.attrs.items())]
        return f"{op.kind}({', '.join(args + extra)})"
    raise ValueError(f"codegen: unknown op kind {op.kind!r}")


def _bind_lines(prog: TProgram, env_name: str) -> list[str]:
    lines = []
    for buf in prog.inputs:
        lines.append(f"    {buf} = {env_name}[{buf!r}]")
    for buf, value in prog.consts.items():
        lines.append(f"    {buf} = {value!r}")
    return lines


def generate_forward_source(prog: TProgram, saved: list[str], entry: str) -> str:
    """Forward kernel: ``entry(ctx, env) -> (out, saved_dict)``."""
    lines = [
        f"def {entry}(ctx, env):",
        # The docstring names the entry, not the display name, so source is
        # byte-identical across re-traces and the launcher can dedup it.
        f'    """Generated forward kernel {entry}."""',
    ]
    lines += _bind_lines(prog, "env")
    for op in prog.ops:
        lines.append(f"    {op.out} = {_render_call(op)}")
    saved_items = ", ".join(f"{name!r}: {name}" for name in saved)
    lines.append(f"    saved = {{{saved_items}}}")
    lines.append(f"    return {prog.outputs[0]}, saved")
    return "\n".join(lines) + "\n"


def generate_backward_source(prog: TProgram, grad_map: dict[str, str], entry: str) -> str:
    """Backward kernel: ``entry(ctx, g_out, saved) -> {input_buf: grad}``."""
    lines = [
        f"def {entry}(ctx, g_out, saved):",
        f'    """Generated backward kernel {entry}."""',
    ]
    for buf, (kind, _) in prog.inputs.items():
        if kind == "saved":
            lines.append(f"    {buf} = saved[{buf!r}]")
    for buf, value in prog.consts.items():
        lines.append(f"    {buf} = {value!r}")
    for op in prog.ops:
        lines.append(f"    {op.out} = {_render_call(op)}")
    grad_items = ", ".join(f"{inp!r}: {gbuf}" for inp, gbuf in grad_map.items())
    lines.append(f"    return {{{grad_items}}}")
    return "\n".join(lines) + "\n"


def compile_program(source: str, entry: str, meta: dict | None = None) -> CompiledKernel:
    """Compile generated source against the runtime namespace into a launchable kernel.

    Goes through the active device's :meth:`KernelLauncher.compile`, which
    deduplicates byte-identical generated source — identical kernels compile
    once per device no matter how many plans request them.
    """
    from repro.compiler.runtime import RUNTIME_NAMESPACE
    from repro.device import current_device

    return current_device().launcher.compile(
        source, entry, globals_extra=dict(RUNTIME_NAMESPACE), meta=meta
    )


def generate_op_kernels(prog: TProgram, prefix: str) -> list[tuple[TOp, CompiledKernel]]:
    """Unfused mode: one launchable kernel per tensor-IR op."""
    kernels: list[tuple[TOp, CompiledKernel]] = []
    for i, op in enumerate(prog.ops):
        entry = f"{prefix}_op{i}_{op.kind}"
        params = ", ".join(n for n in op.ins if n != IMPLICIT_ONES)
        head = f"def {entry}(ctx, {params}):" if params else f"def {entry}(ctx):"
        # The implicit ones weight renders as a literal None argument, so it is not a param.
        source = "\n".join([head, f"    return {_render_call(op)}"]) + "\n"
        kernels.append((op, compile_program(source, entry, meta={"op": op.kind})))
    return kernels
