"""Kernel source generation.

Emits Python source from tensor programs — the simulated-device analogue of
Seastar's CUDA codegen.  The source is genuine generated code: it is kept on
the :class:`~repro.device.kernel.CompiledKernel` for inspection, compiled
with ``compile()``/``exec`` (errors surface as real syntax/name errors) when
its plan is built, and launched through the device's kernel launcher.  Each
pass is one fused kernel: intermediates live and die inside one launch,
exactly like Seastar's fused kernels.
"""

from __future__ import annotations

from repro.compiler.tir import IMPLICIT_ONES, OP_SCHEMAS, TOp, TProgram
from repro.device.kernel import CompiledKernel, compile_kernel_source

__all__ = [
    "generate_forward_source",
    "generate_backward_source",
    "compile_program",
]


def _render_call(op: TOp) -> str:
    """One IR op as a runtime-primitive call expression."""
    schema = OP_SCHEMAS.get(op.kind)
    if schema is None:
        raise ValueError(f"codegen: unknown op kind {op.kind!r}")
    args = ["None" if n == IMPLICIT_ONES else n for n in op.ins]
    if schema.klass != "elementwise":
        args = ["ctx"] + args
    fn, attrs = op.kind, sorted(op.attrs.items())
    if op.kind == "ew":
        fn, attrs = f"ew_{op.attrs['op']}", [(k, v) for k, v in attrs if k != "op"]
    extra = [f"{k}={v!r}" for k, v in attrs]
    return f"{fn}({', '.join(args + extra)})"


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
        # byte-identical across re-traces.
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


def compile_program(source: str, entry: str) -> CompiledKernel:
    """Compile generated source against the runtime namespace into a launchable kernel.

    The plan cache is what makes a kernel compile once per program shape.
    """
    from repro.compiler.runtime import RUNTIME_NAMESPACE

    fn = compile_kernel_source(source, entry, globals_extra=dict(RUNTIME_NAMESPACE))
    return CompiledKernel(name=entry, source=source, fn=fn)
