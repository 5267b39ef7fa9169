"""The TGCN gate tail as separate tape ops on the two weight halves (test-only).

Under the numeric contract (DESIGN.md "The numeric contract") each gate's
``[a ‖ H] @ W`` is ``a @ W[:F] + H @ W[F:]``.  This module writes that out
one tape op at a time: ``GetItem`` row slices of each ``Linear`` weight,
``MatMul``, ``Add``, ``Sigmoid`` / ``Tanh``, and ``z·H + (1−z)·h̃`` from
``Mul``, ``Sub`` and ``Add``.  ``tests/test_tgcn_gates.py`` requires the
fused ``TGCNGates`` node's outputs and every gradient to be bitwise equal to
it; the concatenating composition of ``tests/_tgcn_reference.py`` is held to
the contract's bound instead.  It is **not a code path**: nothing under
``src/`` may import it.
"""

from __future__ import annotations

from repro.tensor import functional as F

__all__ = ["split_gate_tail", "split_tgcn_step"]


def _gate(a, h, lin):
    """``a @ W[:F] + H @ W[F:] + b``, one tape op each."""
    f = a.shape[1]
    top = F.matmul(a, F.getitem(lin.weight, slice(0, f)))
    return F.add(F.add(top, F.matmul(h, F.getitem(lin.weight, slice(f, None)))), lin.bias)


def split_gate_tail(a_z, a_r, a_h, h, lin_z, lin_r, lin_h):
    """``H'`` from precomputed gate aggregations, one op per tape node."""
    z = F.sigmoid(_gate(a_z, h, lin_z))
    r = F.sigmoid(_gate(a_r, h, lin_r))
    h_tilde = F.tanh(_gate(a_h, F.mul(r, h), lin_h))
    return F.add(F.mul(z, h), F.mul(F.sub(1.0, z), h_tilde))


def split_tgcn_step(model, executor, x, h=None):
    """One step of ``model`` (a ``repro.nn.TGCN``) with the gate math unfused."""
    if h is None:
        h = model.initial_state(x.shape[0])
    a_z, a_r, a_h = model.conv_z(executor, x), model.conv_r(executor, x), model.conv_h(executor, x)
    return split_gate_tail(a_z, a_r, a_h, h, model.lin_z, model.lin_r, model.lin_h)
