"""Backward-program construction (auto-differentiation of the tensor IR).

Walks the forward program in reverse, emitting vector-Jacobian products.
Two properties matter for the paper's claims:

* the gradient of ``spmm`` is ``spmm_T`` — a product over the **backward
  CSR** (out-neighbors), which is why the graph abstraction maintains both
  orientations with shared edge labels;
* every forward value a VJP rule reads is registered as a *saved* input of
  the backward program.  After dead-code elimination, the surviving saved
  set is exactly what the executor must push onto the State Stack — the
  paper's "compare the backward and forward intermediate representations to
  determine which features need to be stored" memory optimization.

Broadcast adjoints are resolved statically from the width table produced by
lowering: a scalar-width ``(N,)`` operand multiplied into a vector-width
``(N,F)`` value receives a column-summed gradient (``colsum``), with no
shape probing at run time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.compiler.lower import CompileError
from repro.compiler.tir import IMPLICIT_ONES, TOp, TProgram

__all__ = ["BackwardResult", "build_backward"]


@dataclass
class BackwardResult:
    """The differentiated program, its saved-buffer spec, and the grad map."""
    prog: TProgram
    #: forward buffers the backward program reads (State Stack contents)
    saved: list[str] = field(default_factory=list)
    #: fwd input buffer -> bwd output buffer holding its gradient
    grad_map: dict[str, str] = field(default_factory=dict)


class _BwdBuilder:
    def __init__(self, fwd: TProgram, widths: dict[str, str]) -> None:
        self.fwd = fwd
        self.widths = dict(widths)
        self.prog = TProgram(f"{fwd.name}_bwd")
        self._tmp = itertools.count()
        self._const_cache: dict[float, str] = {}
        self.grads: dict[str, str] = {}

    def fresh(self) -> str:
        return f"g{next(self._tmp)}"

    def emit(self, kind: str, ins: tuple[str, ...], space: str, width: str, **attrs) -> str:
        out = self.fresh()
        self.prog.ops.append(TOp(kind, out, ins, attrs))
        self.prog.spaces[out] = space
        self.widths[out] = width
        return out

    def const(self, value: float) -> str:
        buf = self._const_cache.get(value)
        if buf is None:
            buf = f"gc{next(self._tmp)}"
            self.prog.consts[buf] = float(value)
            self.prog.spaces[buf] = "scalar"
            self.widths[buf] = "s"
            self._const_cache[value] = buf
        return buf

    def use_fwd(self, name: str) -> str:
        """Reference a forward-pass value inside the backward program."""
        if name in self.fwd.consts:
            return self.const(self.fwd.consts[name])
        if name not in self.prog.inputs:
            self.prog.inputs[name] = ("saved", name)
            self.prog.spaces[name] = self.fwd.spaces[name]
        return name

    def space_of(self, fwd_buf: str) -> str:
        return self.fwd.spaces[fwd_buf]

    def accumulate(self, fwd_buf: str, grad_buf: str) -> None:
        if self.space_of(fwd_buf) == "scalar":
            return  # constants take no gradient
        prev = self.grads.get(fwd_buf)
        if prev is None:
            self.grads[fwd_buf] = grad_buf
        else:
            space = self.fwd.spaces[fwd_buf]
            width = self.widths[prev]
            self.grads[fwd_buf] = self.emit("ew", (prev, grad_buf), space, width, op="add")

    def unbroadcast(self, grad_buf: str, operand: str) -> str:
        """Column-sum the gradient when the operand is scalar-width but the
        grad is vector-width (static broadcast adjoint)."""
        if self.space_of(operand) != "node":
            return grad_buf
        if self.widths[operand] == "s" and self.widths[grad_buf] == "v":
            return self.emit("colsum", (grad_buf,), "node", "s")
        return grad_buf

    # ------------------------------------------------------------------
    def run(self, wrt: set[str]) -> BackwardResult:
        out_buf = self.fwd.outputs[0]
        self.prog.inputs["g_out"] = ("grad", out_buf)
        self.prog.spaces["g_out"] = "node"
        self.widths["g_out"] = self.widths[out_buf]
        self.grads[out_buf] = "g_out"

        for op in reversed(self.fwd.ops):
            g = self.grads.get(op.out)
            if g is None:
                continue
            self._vjp(op, g)

        grad_map: dict[str, str] = {}
        for buf in self.fwd.inputs:
            if buf in wrt and buf in self.grads:
                grad_map[buf] = self.grads[buf]
        self.prog.outputs = list(grad_map.values())
        _dce(self.prog)
        saved = [
            name
            for name, (kind, _) in self.prog.inputs.items()
            if kind == "saved"
        ]
        return BackwardResult(self.prog, saved, grad_map)

    # ------------------------------------------------------------------
    def _vjp(self, op: TOp, g: str) -> None:
        kind = op.kind
        if kind == "ew" and len(op.ins) == 1:
            self._vjp_unary(op, g)
        elif kind == "ew":
            self._vjp_binary(op, g)
        elif kind == "spmm":
            w, x = op.ins
            direction = op.attrs.get("direction", "in")
            w_val = IMPLICIT_ONES if w == IMPLICIT_ONES else self.use_fwd(w)
            gx = self.emit("spmm_T", (w_val, g), "node", self.widths[x], direction=direction)
            self.accumulate(x, gx)
            if w != IMPLICIT_ONES:
                gw = self.emit(
                    "edge_dot", (self.use_fwd(x), g), "edge", "s", direction=direction
                )
                self.accumulate(w, gw)
        elif kind == "spmm_scaled":
            # The scale is a read-only input outside the gradient set
            # (fold_scales' rule), so only the payload takes a gradient.
            s, x = op.ins
            gx = self.emit(
                "spmm_scaled_T", (self.use_fwd(s), g), "node", self.widths[x],
                direction=op.attrs.get("direction", "in"),
            )
            self.accumulate(x, gx)
        elif kind == "diag_mul":
            x, s = op.ins
            self.accumulate(x, self.emit("diag_mul", (g, self.use_fwd(s)), "node", self.widths[g]))
        elif kind == "segment_sum":
            (w,) = op.ins
            self.accumulate(w, self.emit("gather_dst", (g,), "edge", "s"))
        elif kind == "scatter_src":
            (w,) = op.ins
            self.accumulate(w, self.emit("gather_src", (g,), "edge", "s"))
        elif kind == "gather_src":
            (x,) = op.ins
            self.accumulate(x, self.emit("scatter_src", (g,), "node", "s"))
        elif kind == "gather_dst":
            (x,) = op.ins
            self.accumulate(x, self.emit("segment_sum_dst", (g,), "node", "s"))
        elif kind == "edge_softmax":
            (z,) = op.ins
            alpha = self.use_fwd(op.out)
            self.accumulate(z, self.emit("edge_softmax_bwd", (alpha, g), "edge", "s"))
        elif kind == "agg_max":
            (x,) = op.ins
            gx = self.emit(
                "agg_max_bwd",
                (self.use_fwd(x), self.use_fwd(op.out), g),
                "node",
                self.widths[x],
            )
            self.accumulate(x, gx)
        elif kind in ("in_deg", "in_deg_clamped", "out_deg", "out_deg_clamped"):
            pass  # structural, no gradient
        else:  # pragma: no cover - new op kinds must add a rule
            raise CompileError(f"no VJP rule for op kind {kind!r}")

    def _vjp_unary(self, op: TOp, g: str) -> None:
        (a,) = op.ins
        space = self.space_of(a)
        width = self.widths.get(a, "s")
        ew = op.attrs["op"]
        if ew == "neg":
            gi = self.emit("ew", (g,), space, width, op="neg")
        elif ew == "exp":
            gi = self.emit("ew", (g, self.use_fwd(op.out)), space, width, op="mul")
        elif ew == "log":
            gi = self.emit("ew", (g, self.use_fwd(a)), space, width, op="div")
        elif ew == "tanh":
            out = self.use_fwd(op.out)
            t = self.emit("ew", (out, out), space, width, op="mul")
            u = self.emit("ew", (self.const(1.0), t), space, width, op="sub")
            gi = self.emit("ew", (g, u), space, width, op="mul")
        elif ew == "sigmoid":
            out = self.use_fwd(op.out)
            u = self.emit("ew", (self.const(1.0), out), space, width, op="sub")
            t = self.emit("ew", (out, u), space, width, op="mul")
            gi = self.emit("ew", (g, t), space, width, op="mul")
        elif ew == "relu":
            mask = self.emit("relu_mask", (self.use_fwd(op.out),), space, width)
            gi = self.emit("ew", (g, mask), space, width, op="mul")
        elif ew == "leaky_relu":
            mask = self.emit(
                "leaky_mask",
                (self.use_fwd(a),),
                space,
                width,
                slope=op.attrs.get("slope", 0.01),
            )
            gi = self.emit("ew", (g, mask), space, width, op="mul")
        elif ew == "recip":
            out = self.use_fwd(op.out)
            t = self.emit("ew", (out, out), space, width, op="mul")
            u = self.emit("ew", (g, t), space, width, op="mul")
            gi = self.emit("ew", (u,), space, width, op="neg")
        else:  # pragma: no cover
            raise CompileError(f"no VJP rule for unary {ew!r}")
        self.accumulate(a, gi)

    def _vjp_binary(self, op: TOp, g: str) -> None:
        a, b = op.ins
        ew = op.attrs["op"]
        g_width = self.widths[g]
        g_space = self.prog.spaces[g]
        if ew == "add":
            self.accumulate(a, self.unbroadcast(g, a))
            self.accumulate(b, self.unbroadcast(g, b))
        elif ew == "sub":
            self.accumulate(a, self.unbroadcast(g, a))
            nb = self.emit("ew", (g,), g_space, g_width, op="neg")
            self.accumulate(b, self.unbroadcast(nb, b))
        elif ew == "mul":
            if self.space_of(a) != "scalar":
                ga = self.emit("ew", (g, self.use_fwd(b)), g_space, g_width, op="mul")
                self.accumulate(a, self.unbroadcast(ga, a))
            if self.space_of(b) != "scalar":
                gb = self.emit("ew", (g, self.use_fwd(a)), g_space, g_width, op="mul")
                self.accumulate(b, self.unbroadcast(gb, b))
        elif ew == "div":
            if self.space_of(a) != "scalar":
                ga = self.emit("ew", (g, self.use_fwd(b)), g_space, g_width, op="div")
                self.accumulate(a, self.unbroadcast(ga, a))
            if self.space_of(b) != "scalar":
                # out = a/b ⇒ d/db = -out/b
                t = self.emit("ew", (g, self.use_fwd(op.out)), g_space, g_width, op="mul")
                u = self.emit("ew", (t, self.use_fwd(b)), g_space, g_width, op="div")
                gb = self.emit("ew", (u,), g_space, g_width, op="neg")
                self.accumulate(b, self.unbroadcast(gb, b))
        else:  # pragma: no cover
            raise CompileError(f"no VJP rule for binary {ew!r}")


def _dce(prog: TProgram) -> None:
    """Drop ops (and unused inputs) not reachable from the outputs."""
    needed = set(prog.outputs)
    kept: list[TOp] = []
    for op in reversed(prog.ops):
        if op.out in needed:
            kept.append(op)
            needed.update(n for n in op.ins if n != IMPLICIT_ONES)
    prog.ops = list(reversed(kept))
    prog.inputs = {k: v for k, v in prog.inputs.items() if k in needed}
    prog.consts = {k: v for k, v in prog.consts.items() if k in needed}


def build_backward(
    fwd: TProgram,
    widths: dict[str, str],
    wrt: set[str] | None = None,
) -> BackwardResult:
    """Differentiate a forward tensor program.

    ``wrt`` selects which forward *input buffers* receive gradients
    (default: all node and edge feature inputs).
    """
    if len(fwd.outputs) != 1:
        raise CompileError("backward construction expects a single-output forward program")
    if wrt is None:
        wrt = set(fwd.inputs)
    return _BwdBuilder(fwd, widths).run(wrt)
