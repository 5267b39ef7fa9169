"""repro — a from-scratch reproduction of **STGraph** (IPDPS 2024).

STGraph: A Framework for Temporal Graph Neural Networks
(Cherian, Manoj, Concessao, Cheramangalath).

The package reimplements the paper's full stack on a simulated device (no
GPU required; see DESIGN.md for the substitution table):

==========================  ==================================================
``repro.device``            simulated accelerator: tracked allocator, kernel
                            launcher, telemetry totals
``repro.tensor``            reverse-mode autodiff engine (the PyTorch stand-in)
``repro.compiler``          the Seastar vertex-centric compiler: trace → IR →
                            autodiff → passes → generated kernels
``repro.core``              temporally-aware executor, State/Graph stacks,
                            backend interface
``repro.pma``               Packed Memory Array (the GPMA substrate)
``repro.graph``             STGraphBase + StaticGraph / NaiveGraph / GPMAGraph
``repro.nn``                GNN/TGNN layer APIs (GCN, GAT, SAGE, TGCN,
                            GConvGRU, GConvLSTM, A3TGCN, EvolveGCN-O)
``repro.dataset``           Table II dataset stand-ins + discretizer
``repro.baselines.pygt``    the PyG-Temporal baseline (edge-parallel)
``repro.train``             Algorithm 1 trainers, tasks, metrics
``repro.resilience``        fault injection, chaos harness, resume plumbing
``repro.bench``             experiment runners for every table and figure
==========================  ==================================================

Quickstart::

    from repro.dataset import load_hungary_chickenpox
    from repro.train import STGraphTrainer, STGraphNodeRegressor

    ds = load_hungary_chickenpox(lags=8)
    model = STGraphNodeRegressor(in_features=8, hidden=16)
    trainer = STGraphTrainer(model, ds.build_graph(), lr=1e-2)
    for epoch in range(10):
        loss = trainer.train_epoch(ds.features, ds.targets)
"""

__version__ = "1.0.0"

from repro import (
    baselines,
    bench,
    compiler,
    core,
    dataset,
    device,
    graph,
    nn,
    pma,
    resilience,
    tensor,
    train,
)

__all__ = [
    "__version__",
    "device",
    "tensor",
    "compiler",
    "core",
    "pma",
    "graph",
    "nn",
    "dataset",
    "baselines",
    "train",
    "resilience",
    "bench",
]
