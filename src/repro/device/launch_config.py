"""Feature-adaptive launch configuration (Seastar's kernel-tuning model).

The paper attributes part of STGraph's speed to "optimized CUDA kernels
that take advantage of feature-adaptive thread group allocations and vertex
parallelism" (§VII-A).  The real system sizes each kernel's thread groups
by the feature dimension: a group of ``min(F, 32)`` threads handles one
vertex's feature vector, groups pack into 256-thread blocks, and the grid
covers all vertices; wide features switch to one-warp-per-vertex with
strided feature loops.

The simulated device cannot schedule warps, but it reproduces the *model*:
:func:`feature_adaptive_config` computes the same configuration Seastar
would launch for a graph and feature width, and :func:`estimated_occupancy`
exposes the quantity the heuristic optimizes.  Both are plain functions: a
kernel launch records nothing, so a compiled plan stays read-only.  Tests
pin the heuristic's published properties (group size saturates at warp
width, blocks cover all vertices, occupancy is monotone in feature size up
to the warp bound).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LaunchConfig", "feature_adaptive_config", "estimated_occupancy"]

WARP_SIZE = 32
BLOCK_THREADS = 256
MAX_BLOCKS = 65_535


@dataclass(frozen=True)
class LaunchConfig:
    """One kernel launch shape."""

    threads_per_group: int  # threads cooperating on one vertex
    groups_per_block: int
    num_blocks: int
    feature_stride: int  # features each thread processes (strided loop)

    @property
    def threads_per_block(self) -> int:
        """Threads per block (group size × groups)."""
        return self.threads_per_group * self.groups_per_block

    @property
    def total_threads(self) -> int:
        """Lanes across the whole launch."""
        return self.threads_per_block * self.num_blocks

    def vertices_per_launch(self) -> int:
        """Vertices covered by one grid."""
        return self.groups_per_block * self.num_blocks


def feature_adaptive_config(num_vertices: int, feature_size: int) -> LaunchConfig:
    """Seastar's feature-adaptive heuristic.

    * tiny features: a group is exactly ``feature_size`` threads, many
      vertices share a block (thread-group parallelism);
    * features ≥ warp width: one warp per vertex, each thread looping over
      ``ceil(F / 32)`` features (the ``feature_stride``).
    """
    if num_vertices < 1:
        raise ValueError("num_vertices must be positive")
    if feature_size < 1:
        raise ValueError("feature_size must be positive")
    threads_per_group = min(feature_size, WARP_SIZE)
    # round group size up to a power of two for shuffle-based reductions
    pow2 = 1
    while pow2 < threads_per_group:
        pow2 *= 2
    threads_per_group = pow2
    groups_per_block = max(1, BLOCK_THREADS // threads_per_group)
    num_blocks = min(MAX_BLOCKS, -(-num_vertices // groups_per_block))
    feature_stride = -(-feature_size // threads_per_group)
    return LaunchConfig(threads_per_group, groups_per_block, num_blocks, feature_stride)


def estimated_occupancy(config: LaunchConfig, num_vertices: int, feature_size: int) -> float:
    """Fraction of launched lanes doing useful work (the heuristic's
    objective): wasted lanes come from power-of-two rounding of the group
    and from the last partially-filled block."""
    useful = num_vertices * min(feature_size, config.threads_per_group * config.feature_stride)
    launched = config.total_threads * config.feature_stride
    return min(1.0, useful / launched) if launched else 0.0
