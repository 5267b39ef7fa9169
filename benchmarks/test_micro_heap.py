"""Heap-fault micro-benchmark: a warm training epoch faults no buffer back in.

glibc's ``malloc`` hands every freed array of 128 KiB or more back to the
OS by default, so each training step page-faulted its ``N×F`` arrays in
again: about 15 000 minor faults a warm epoch on WikiMaths at scale 1.0
(``static-gnn-bound``'s shape, ``1068×32`` float32 arrays of 136.7 KB).
``repro.device`` raises the heap's mmap and trim thresholds once per process
(:mod:`repro.device.heap`), and the same epoch then faults a handful of
pages.  Fault counts depend on the C library and the kernel, so CI runs this
as a non-gating smoke.
"""

from __future__ import annotations

import resource

import pytest

from repro.dataset.static_datasets import load_wikimaths
from repro.device import set_heap_policy
from repro.tensor import init
from repro.train.models import STGraphNodeRegressor
from repro.train.trainer import STGraphTrainer

EPOCHS = 3
#: A tenth of the ~15 000 faults an epoch took with glibc's default thresholds.
MAX_FAULTS_PER_EPOCH = 1500


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def test_warm_static_epochs_fault_no_buffers_back_in():
    if not set_heap_policy():
        pytest.skip("the heap policy needs glibc's mallopt")
    ds = load_wikimaths(lags=32, scale=1.0, num_timestamps=60, seed=101)
    init.set_seed(0)
    trainer = STGraphTrainer(STGraphNodeRegressor(32, 32), ds.build_graph(), sequence_length=10)
    trainer.train_epoch(ds.features, ds.targets)  # warm: plans compile, buffers reach the heap
    faults = []
    for _ in range(EPOCHS):
        before = _minor_faults()
        trainer.train_epoch(ds.features, ds.targets)
        faults.append(_minor_faults() - before)
    print(f"\nminor faults per warm epoch: {faults}")
    assert sorted(faults)[EPOCHS // 2] < MAX_FAULTS_PER_EPOCH, faults
