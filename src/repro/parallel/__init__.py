"""Sharded multi-process execution engine for CAD scoring.

Public surface:

* :class:`~repro.parallel.engine.ParallelCadDetector` — drop-in
  parallel twin of :class:`~repro.core.cad.CadDetector`;
* the transition planner and shared-memory store, for callers building
  their own orchestration.

See ``docs/parallelism.md`` for the sharding axis, the determinism
contract, and the shared-memory lifecycle.
"""

from .checkpoint import (
    read_parallel_checkpoint,
    sequence_fingerprint,
    write_parallel_checkpoint,
)
from .engine import ParallelCadDetector, default_worker_count
from .merge import assemble_transition_scores, merge_worker_health
from .sharding import SHARD_MODES, plan_transition_chunks
from .shm import AttachedGraphSequence, SharedGraphSequence
from .supervisor import SupervisedPool
from .worker import WorkerConfig

__all__ = [
    "ParallelCadDetector",
    "default_worker_count",
    "SHARD_MODES",
    "plan_transition_chunks",
    "SharedGraphSequence",
    "SupervisedPool",
    "AttachedGraphSequence",
    "WorkerConfig",
    "sequence_fingerprint",
    "read_parallel_checkpoint",
    "write_parallel_checkpoint",
    "assemble_transition_scores",
    "merge_worker_health",
]
