"""Checkpointing: save/restore model + optimizer state as ``.npz``.

Keeps long TGNN training runs resumable.  Model parameters are stored by
their ``named_parameters`` path; optimizer buffers (Adam moments, SGD
velocity) are flattened with a prefix.  Loading validates shapes and
parameter names so silent architecture mismatches fail loudly.

Writes are **atomic**: the archive is written to a same-directory temp file
and moved into place with ``os.replace``, so a crash mid-write can never
destroy the previous checkpoint.  Every archive embeds a SHA-256 integrity
hash over its array contents; :func:`load_checkpoint` recomputes it and
raises :class:`CheckpointIntegrityError` on mismatch (torn copies, bit rot,
hand-edited files).

:func:`save_training_checkpoint`/:func:`load_training_checkpoint` layer the
trainer's mid-run resume state (schedule position, RNG state, plan ids,
losses) on top as the ``extra["training"]`` dict — see
``docs/RESILIENCE.md`` for the full layout.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import numpy as np

from repro.tensor.nn import Module
from repro.tensor.optim import Optimizer

__all__ = [
    "CheckpointIntegrityError",
    "save_checkpoint",
    "load_checkpoint",
    "save_training_checkpoint",
    "load_training_checkpoint",
]

_META_KEY = "__checkpoint_meta__"


class CheckpointIntegrityError(ValueError):
    """The checkpoint's content does not match its embedded integrity hash."""


def _integrity_digest(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over every array's name, dtype, shape, and bytes (sorted)."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        if name == _META_KEY:
            continue
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def save_checkpoint(
    path: str | pathlib.Path,
    model: Module,
    optimizer: Optimizer | None = None,
    extra: dict | None = None,
) -> pathlib.Path:
    """Write model (and optionally optimizer) state to ``path`` (.npz).

    The write is atomic (same-directory temp file + ``os.replace``) and the
    archive's meta carries a SHA-256 hash of all array contents, verified on
    load.
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {"params": [], "optimizer": None, "extra": extra or {}}
    for name, value in model.state_dict().items():
        arrays[f"param/{name}"] = value
        meta["params"].append(name)

    if optimizer is not None:
        state = optimizer.state_dict()
        opt_meta: dict = {"class": type(optimizer).__name__, "scalars": {}}
        for key, value in state.items():
            if isinstance(value, (int, float)):
                opt_meta["scalars"][key] = value
            elif isinstance(value, list):
                opt_meta.setdefault("lists", {})[key] = len(value)
                for i, item in enumerate(value):
                    if item is not None:
                        arrays[f"opt/{key}/{i}"] = item
            else:  # pragma: no cover - optimizer states are scalars/lists
                raise TypeError(f"unsupported optimizer state entry {key!r}")
        meta["optimizer"] = opt_meta

    meta["integrity"] = _integrity_digest(arrays)
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        # np.savez on an open handle never appends a suffix, so the rename
        # target is exact.
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # crashed before the rename: never leave turds
            tmp.unlink()
    return path


def load_checkpoint(
    path: str | pathlib.Path,
    model: Module,
    optimizer: Optimizer | None = None,
) -> dict:
    """Restore state saved by :func:`save_checkpoint`; returns ``extra``.

    Recomputes the embedded integrity hash over the archive's arrays before
    touching the model; a mismatch raises :class:`CheckpointIntegrityError`.
    """
    with np.load(pathlib.Path(path), allow_pickle=False) as data:
        meta = json.loads(bytes(data[_META_KEY]).decode())
        expected = meta.get("integrity")
        if expected is not None:
            arrays = {name: data[name] for name in data.files if name != _META_KEY}
            actual = _integrity_digest(arrays)
            if actual != expected:
                raise CheckpointIntegrityError(
                    f"checkpoint {path} is corrupt: content hash {actual[:12]}… "
                    f"does not match recorded {expected[:12]}…"
                )
        state = {name: data[f"param/{name}"] for name in meta["params"]}
        model.load_state_dict(state)

        if optimizer is not None:
            opt_meta = meta.get("optimizer")
            if opt_meta is None:
                raise ValueError("checkpoint has no optimizer state")
            if opt_meta["class"] != type(optimizer).__name__:
                raise ValueError(
                    f"checkpoint optimizer is {opt_meta['class']}, "
                    f"got {type(optimizer).__name__}"
                )
            restored: dict = dict(opt_meta["scalars"])
            for key, length in opt_meta.get("lists", {}).items():
                restored[key] = [
                    data[f"opt/{key}/{i}"] if f"opt/{key}/{i}" in data else None
                    for i in range(length)
                ]
            optimizer.load_state_dict(restored)
    return meta["extra"]


def save_training_checkpoint(
    path: str | pathlib.Path,
    model: Module,
    optimizer: Optimizer,
    training_state: dict,
) -> pathlib.Path:
    """A :func:`save_checkpoint` carrying the trainer's mid-run resume state.

    ``training_state`` must be JSON-serializable; the trainer stores the
    next (epoch, sequence) position, total epochs, completed/partial losses,
    the initializer RNG state and the compiled plan ids.

    Each write is one ``train.checkpoint_write`` interval: its wall time
    lands in the ``repro_checkpoint_write_seconds`` histogram, and the flight
    recorder (when armed) gets a breadcrumb — checkpoints sit exactly on the
    failure edges the recorder documents.
    """
    from repro.obs.spine import span

    with span("train.checkpoint_write", path=str(path), epoch=training_state.get("epoch"),
              sequence=training_state.get("sequence")):
        return save_checkpoint(path, model, optimizer, extra={"training": training_state})


def load_training_checkpoint(
    path: str | pathlib.Path,
    model: Module,
    optimizer: Optimizer,
) -> dict:
    """Restore a training checkpoint; returns its resume-state dict as stored
    (keys an older tree wrote and this one does not read are left in it)."""
    extra = load_checkpoint(path, model, optimizer)
    training = extra.get("training")
    if training is None:
        raise ValueError(f"{path} is a bare model checkpoint, not a training checkpoint")
    return training
