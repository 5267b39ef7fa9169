"""PyG-Temporal baseline (paper §VII "Baseline": PyG-T v0.54.0, TGCN).

A faithful re-implementation of the mechanisms that determine PyG-T's
time/memory behaviour, in the same tensor engine and measured by the same
device allocator as STGraph:

* **edge-parallel message passing** (:mod:`message_passing`): per-edge
  gather of source features (materializing the ``E×F`` message tensor the
  paper calls "duplication of node features"), elementwise edge update,
  scatter-add reduce.  The gathered tensors are *retained by the autodiff
  tape until backward*, so memory grows with sequence length (Figure 6) and
  feature size (Figure 5) exactly as PyG-T's does.
* **TGCN** (:mod:`tgcn`): the same gate math as :class:`repro.nn.TGCN`
  built on the edge-parallel convolution, so loss trajectories match
  STGraph's and only the execution strategy differs ("The loss for models
  compiled with PyG-T and STGraph are similar over all tests").
* **temporal signal iterators** (:mod:`signal`): the PyG-T dataset API,
  with per-snapshot DTDG storage — every snapshot kept device-resident as a
  dense COO ``edge_index``, "storing DTDGs as separate snapshots ...
  substantial memory overhead" (Figure 8).
"""

from repro.baselines.pygt.message_passing import MessagePassing
from repro.baselines.pygt.gcn_conv import PyGGCNConv
from repro.baselines.pygt.tgcn import PyGTGConvGRU, PyGTTGCN
from repro.baselines.pygt.signal import StaticGraphTemporalSignal, DynamicGraphTemporalSignal

__all__ = [
    "MessagePassing",
    "PyGGCNConv",
    "PyGTTGCN",
    "PyGTGConvGRU",
    "StaticGraphTemporalSignal",
    "DynamicGraphTemporalSignal",
]
