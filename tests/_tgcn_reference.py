"""Frozen TGCN gate composition (test-only).

This is ``repro.nn.TGCN.forward`` exactly as it stood while the GRU gate
tail was seventeen separate tape ops (``src/repro/nn/tgcn.py`` at commit
1ec9540): each gate's convolution, then ``Concat`` -> the gate ``Linear``
(``MatMul`` + ``Add``) -> ``Sigmoid`` / ``Tanh``, and ``z·H + (1−z)·h̃`` from
``Mul``, ``Sub`` and ``Add``.  It reads the model's own submodules, so a
reference run and a real run of one model differ only in how the gate tail
is recorded.  It is **not a code path**: nothing under ``src/`` may import
it, and it must not be edited to follow the fused node.
``tests/test_tgcn_gates.py`` requires the fused node's outputs and every
gradient to be bitwise equal to this composition's.
"""

from __future__ import annotations

from repro.tensor import functional as F

__all__ = ["reference_gate_tail", "reference_tgcn_step"]


def reference_gate_tail(a_z, a_r, a_h, h, lin_z, lin_r, lin_h):
    """``H'`` from precomputed gate aggregations, one op per tape node."""
    z = F.sigmoid(lin_z(F.concat([a_z, h], axis=1)))
    r = F.sigmoid(lin_r(F.concat([a_r, h], axis=1)))
    h_tilde = F.tanh(lin_h(F.concat([a_h, F.mul(r, h)], axis=1)))
    return F.add(F.mul(z, h), F.mul(F.sub(1.0, z), h_tilde))


def reference_tgcn_step(model, executor, x, h=None):
    """One step of ``model`` (a ``repro.nn.TGCN``) with the gate math unfused:
    each convolution runs right before its gate, as it used to."""
    if h is None:
        h = model.initial_state(x.shape[0])
    z = F.sigmoid(model.lin_z(F.concat([model.conv_z(executor, x), h], axis=1)))
    r = F.sigmoid(model.lin_r(F.concat([model.conv_r(executor, x), h], axis=1)))
    h_tilde = F.tanh(model.lin_h(F.concat([model.conv_h(executor, x), F.mul(r, h)], axis=1)))
    return F.add(F.mul(z, h), F.mul(F.sub(1.0, z), h_tilde))
