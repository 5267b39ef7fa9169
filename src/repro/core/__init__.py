"""The STGraph core: temporally-aware execution (paper §V-A/B, Figure 2).

* :class:`StateStack` / :class:`GraphStack` — the LIFO memory structures
  that make the executor temporally aware (Algorithm 1).
* :class:`TemporalExecutor` — orchestrates which snapshot and which saved
  forward state each backward step sees.
* :class:`VertexCentricLayer` — base class wiring compiled vertex programs
  into the tensor engine's autodiff through the executor.
* backend interface — the factory-decoupled boundary that keeps the
  framework backend-agnostic (paper §VI-1).
* execution engines — the run-time half of the compile/run split: the
  generated-kernel engine and the tensor-IR interpreter behind one
  interface (:data:`ENGINES`), chosen per executor.
"""

from repro.core.stacks import GraphStack, StateStack, StackEntry
from repro.core.engine import ENGINES, ExecutionEngine, InterpreterEngine, KernelEngine
from repro.core.executor import TemporalExecutor
from repro.core.module import VertexCentricLayer
from repro.core.backend import BackendInterface, available_backends, get_backend, register_backend

__all__ = [
    "StateStack",
    "GraphStack",
    "StackEntry",
    "TemporalExecutor",
    "VertexCentricLayer",
    "ExecutionEngine",
    "KernelEngine",
    "InterpreterEngine",
    "ENGINES",
    "BackendInterface",
    "get_backend",
    "register_backend",
    "available_backends",
]
