"""Optimization passes over tensor programs.

* :func:`cse` — common-subexpression elimination (identical kind/inputs/
  attrs compute once).
* :func:`dce` — drop ops and inputs unreachable from the outputs.
* :func:`fold_scales` — fold a symmetric vertex scale (GCN's ``norm``)
  into the aggregation operator's edge data, so ``(A·(x⊙s))⊙s`` is one
  weighted ``spmm`` of ``x`` and the self-loop term ``x⊙s⊙s`` one
  ``diag_mul``.  It reorders float operations, which the numeric contract
  (DESIGN.md) allows.
* :func:`saved_analysis` — report the backward program's saved-buffer set
  against the full forward buffer inventory; the difference is the memory
  the State Stack optimization avoids retaining per timestamp, and any
  saved read *not* produced by the forward program lands in ``missing`` —
  the ``F_b ⊆ F_f`` State-Stack safety condition the verifier turns into
  an ``STG021`` error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.tir import IMPLICIT_ONES, TOp, TProgram

__all__ = ["cse", "dce", "fold_scales", "saved_analysis", "SavedAnalysis"]


def cse(prog: TProgram) -> int:
    """Deduplicate structurally identical ops; returns ops removed."""
    canon: dict[str, str] = {}  # buffer -> canonical buffer
    seen: dict[tuple, str] = {}
    kept: list[TOp] = []

    def resolve(name: str) -> str:
        return canon.get(name, name)

    for op in prog.ops:
        ins = tuple(resolve(n) for n in op.ins)
        key = (op.kind, ins, tuple(sorted(op.attrs.items())))
        existing = seen.get(key)
        if existing is not None:
            canon[op.out] = existing
        else:
            seen[key] = op.out
            kept.append(TOp(op.kind, op.out, ins, op.attrs))
    removed = len(prog.ops) - len(kept)
    prog.ops = kept
    prog.outputs = [resolve(o) for o in prog.outputs]
    return removed


def dce(prog: TProgram) -> int:
    """Remove ops/inputs/consts not reachable from outputs; returns ops removed."""
    needed = set(prog.outputs)
    kept: list[TOp] = []
    for op in reversed(prog.ops):
        if op.out in needed:
            kept.append(op)
            needed.update(n for n in op.ins if n != IMPLICIT_ONES)
    removed = len(prog.ops) - len(kept)
    prog.ops = list(reversed(kept))
    prog.inputs = {k: v for k, v in prog.inputs.items() if k in needed}
    prog.consts = {k: v for k, v in prog.consts.items() if k in needed}
    return removed


def _scaled_by(op: TOp | None, s: str) -> str | None:
    """The other operand of ``op`` if it is ``ew(x, s, mul)`` (either order)."""
    if op is None or op.kind != "ew" or op.attrs.get("op") != "mul" or len(op.ins) != 2:
        return None
    a, b = op.ins
    if a == s and b != s:
        return b
    if b == s and a != s:
        return a
    return None


def fold_scales(prog: TProgram, widths: dict[str, str], wrt: set[str]) -> int:
    """Fold symmetric vertex scales into the aggregation operator.

    A scale is a node input of width ``'s'`` outside ``wrt`` (the gradient
    set): a read-only per-vertex scalar, like GCN's ``norm``.  Where an
    unweighted ``y = spmm(x⊙s)`` is read only by ``y⊙s``, that product
    becomes ``spmm_scaled(s, x)``, whose operator carries ``s[u]·s[v]`` per
    edge; a remaining ``(x⊙s)⊙s`` (the self-loop term) becomes
    ``diag_mul(x, s)``.  The ops left unread are for :func:`dce` to drop.
    Each rewritten op keeps its output buffer and its place, and ``x`` is
    defined before the ``x⊙s`` it came from, so the program stays in order.
    Returns the number of products folded.
    """
    producer = {op.out: op for op in prog.ops}
    readers: dict[str, list[TOp]] = {}
    for op in prog.ops:
        for name in op.ins:
            readers.setdefault(name, []).append(op)
    outputs = set(prog.outputs)
    scales = {
        buf for buf, (kind, _) in prog.inputs.items()
        if kind == "node" and widths.get(buf) == "s" and buf not in wrt
    }
    rewrites: dict[str, TOp] = {}
    folded = 0
    for op in prog.ops:
        if op.kind != "spmm" or op.ins[0] != IMPLICIT_ONES or op.out in outputs:
            continue
        payload = producer.get(op.ins[1])
        users = readers.get(op.out, [])
        if payload is None or len(users) != 1:
            continue
        for s in sorted(scales):
            x = _scaled_by(payload, s)
            if x is None or _scaled_by(users[0], s) is None:
                continue
            rewrites[users[0].out] = TOp("spmm_scaled", users[0].out, (s, x), dict(op.attrs))
            for other in readers[payload.out]:
                if other is not op and _scaled_by(other, s) == payload.out:
                    rewrites[other.out] = TOp("diag_mul", other.out, (x, s))
            folded += 1
            break
    prog.ops = [rewrites.get(op.out, op) for op in prog.ops]
    return folded


@dataclass
class SavedAnalysis:
    """What the backward pass needs vs. what a naive backend would retain."""

    saved: list[str]
    all_forward_buffers: list[str]
    #: saved reads the forward program never produces — the F_b ⊆ F_f
    #: State-Stack safety condition is violated iff this is non-empty
    #: (the verifier reports each entry as STG021)
    missing: list[str] = field(default_factory=list)

    @property
    def pruned(self) -> list[str]:
        """Forward buffers the optimization avoids retaining."""
        return [b for b in self.all_forward_buffers if b not in set(self.saved)]

    def summary(self) -> str:
        """One-line saved-vs-pruned report."""
        text = (
            f"state stack keeps {len(self.saved)}/{len(self.all_forward_buffers)} "
            f"forward buffers: {self.saved} (pruned: {self.pruned})"
        )
        if self.missing:
            text += f" [UNSAFE: saved-but-never-produced: {self.missing}]"
        return text


def saved_analysis(fwd: TProgram, bwd: TProgram) -> SavedAnalysis:
    """Compare the backward program's reads against all forward buffers."""
    saved = [name for name, (kind, _) in bwd.inputs.items() if kind == "saved"]
    all_buffers = list(fwd.inputs) + [op.out for op in fwd.ops]
    produced = set(all_buffers)
    missing = [name for name in saved if name not in produced]
    return SavedAnalysis(saved=saved, all_forward_buffers=all_buffers, missing=missing)
