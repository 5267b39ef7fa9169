"""Online serving layer: request-batched inference over the live graph.

Point queries ("embedding/prediction for vertex *v* at the latest time")
are coalesced into batches and answered from one no-grad forward per
snapshot version, reusing the executor's ProgramPlan and context store.
GPMA update batches land concurrently through
:meth:`InferenceEngine.enqueue_update`, invalidating only the k-hop dirty
neighborhood.  Serving is strictly fresh: every response reflects every
update batch enqueued before it.

See ``docs/SERVING.md`` for the architecture and the consistency contract.
"""

from repro.serve.engine import InferenceEngine, ServeResult, ServingModel
from repro.serve.harness import (
    ServingHarness,
    ServingReport,
    random_update_batches,
    serial_reference,
)

__all__ = [
    "InferenceEngine",
    "ServeResult",
    "ServingModel",
    "random_update_batches",
    "ServingHarness",
    "ServingReport",
    "serial_reference",
]
