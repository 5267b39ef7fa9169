"""Optimization passes over tensor programs.

* :func:`cse` — common-subexpression elimination (identical kind/inputs/
  attrs compute once).
* :func:`dce` — drop ops and inputs unreachable from the outputs.
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

__all__ = ["cse", "dce", "saved_analysis", "SavedAnalysis"]


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
