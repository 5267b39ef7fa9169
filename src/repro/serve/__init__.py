"""Online serving layer: request-batched inference over the live graph.

Point queries ("embedding/prediction for vertex *v* at the latest time")
are coalesced into batches and answered from one no-grad forward per
snapshot version, reusing the executor's ProgramPlan and context store.  GPMA update batches land concurrently through
:class:`UpdateIngest`, invalidating only the k-hop dirty neighborhood;
the ``freshness`` knob bounds how many applied-but-unserved batches a
response may lag behind.

See ``docs/SERVING.md`` for the architecture and staleness semantics.
"""

from repro.serve.engine import InferenceEngine, ServeResult, ServingModel
from repro.serve.harness import ServingHarness, ServingReport, serial_reference
from repro.serve.ingest import UpdateIngest, random_update_batches

__all__ = [
    "InferenceEngine",
    "ServeResult",
    "ServingModel",
    "UpdateIngest",
    "random_update_batches",
    "ServingHarness",
    "ServingReport",
    "serial_reference",
]
