"""Worker-process side of the parallel CAD engine.

Each pool worker is initialised once with a :class:`WorkerConfig`: it
attaches to the shared-memory snapshot store, rebuilds zero-copy
snapshots, and builds a worker-local
:class:`~repro.core.commute.CommuteTimeCalculator` from the parent
calculator's :meth:`~repro.core.commute.CommuteTimeCalculator.spec`.
Two deliberate choices keep worker output independent of scheduling:

* the calculator gets the parent's projection root, and the JL
  projection is keyed by edge under it, so a snapshot's embedding
  depends only on the snapshot, never on which worker scores it or in
  what order;
* the commute-time method is resolved in the *parent* from the full
  node count and forced here, so every worker uses the backend the
  parent chose.

Workers return plain-data payloads (numpy arrays + their cumulative
health state); all result-object assembly happens in the parent, in
transition order, so the merge is deterministic by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.commute import CommuteTimeCalculator
from ..core.scores import adjacency_change_on_pairs, cad_edge_scores
from ..exceptions import EmbeddingError, SolverError
from ..graphs.snapshot import GraphSnapshot, NodeUniverse
from ..observability import MetricsRegistry, enable, trace
from ..resilience.chaos import ChaosSpec
from .shm import AttachedGraphSequence, SharedSequenceSpec

#: Payload array names a transition contributes to the merge/checkpoint.
PAYLOAD_ARRAYS = (
    "edge_rows", "edge_cols", "edge_scores",
    "adjacency_change", "commute_change", "node_scores",
)


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs, shipped once at pool start.

    Attributes:
        sequence: shared-memory attachment spec for the snapshots
            (``None`` on cluster workers, which receive the snapshots
            over the wire instead).
        calculator: the parent calculator's
            :meth:`~repro.core.commute.CommuteTimeCalculator.spec`
            with ``method`` *resolved* (``"exact"`` or ``"approx"`` —
            never ``"auto"``); every worker builds
            ``CommuteTimeCalculator(**calculator)``. A ``"shared"``
            factor cache there is the *worker process's* singleton, so
            a worker reuses factorizations across all chunks it scores.
        skip_unscorable: degrade instead of raising when a transition's
            scoring fails — the failed transition gets zero scores and a
            quarantine record, mirroring the streaming detector's
            lenient mode.
        unregister_shm: whether workers own a private resource tracker
            and must unregister the shared blocks after attaching (true
            for spawn/forkserver pools, false for forked ones — see
            :mod:`repro.parallel.shm`).
        collect_metrics: enable a worker-local
            :class:`~repro.observability.MetricsRegistry`; its
            cumulative state rides back on every task result for the
            parent to merge.
        chaos: optional :class:`~repro.resilience.chaos.ChaosSpec`
            arming deterministic process faults (kill/hang/slow) on
            chosen transitions; attempt-aware, so the supervised pool's
            retries can demonstrably heal first-attempt faults.
    """

    sequence: SharedSequenceSpec | None
    calculator: dict[str, Any]
    skip_unscorable: bool = False
    unregister_shm: bool = False
    collect_metrics: bool = False
    chaos: ChaosSpec | None = None


_STATE: dict[str, Any] = {}

#: Attempt index of the task currently executing (0 = first attempt).
#: Set by the supervised pool before each task so
#: :class:`~repro.resilience.chaos.ChaosSpec` faults can be
#: attempt-aware; plain pools never touch it, leaving every task at
#: attempt 0.
_TASK_ATTEMPT = 0


def set_task_attempt(attempt: int) -> None:
    """Record the running task's retry attempt (supervised pool hook)."""
    global _TASK_ATTEMPT
    _TASK_ATTEMPT = int(attempt)


def _chaos(config: WorkerConfig, transition: int) -> None:
    """Fire any armed chaos faults for ``transition``."""
    if config.chaos is not None:
        config.chaos.apply(transition, _TASK_ATTEMPT)


def install_state(config: WorkerConfig,
                  snapshots: list[GraphSnapshot],
                  registry: MetricsRegistry | None,
                  attached: AttachedGraphSequence | None = None) -> None:
    """Fill :data:`_STATE` for a run: the config, its snapshots, the
    worker's metrics registry, an optional shared-memory attachment,
    and a calculator rebuilt from ``config.calculator``."""
    calculator = CommuteTimeCalculator(**config.calculator)
    _STATE.clear()
    _STATE.update(
        config=config,
        attached=attached,
        snapshots=snapshots,
        calculator=calculator,
        registry=registry,
    )


def init_worker(config: WorkerConfig) -> None:
    """Pool initializer: attach shared memory, build worker-local state."""
    registry = None
    if config.collect_metrics:
        registry = MetricsRegistry()
        enable(registry)
    with trace("worker.init", pid=os.getpid()):
        attached = AttachedGraphSequence(config.sequence,
                                         unregister=config.unregister_shm)
        universe = NodeUniverse.of_size(config.sequence.num_nodes)
        snapshots = [
            GraphSnapshot._from_canonical(matrix, universe, time)
            for matrix, time in zip(attached.matrices, attached.times)
        ]
        install_state(config, snapshots, registry, attached)


def _metrics_state() -> dict[str, Any] | None:
    """Cumulative metrics snapshot riding back on each task result."""
    registry: MetricsRegistry | None = _STATE.get("registry")
    return registry.state() if registry is not None else None


def _payload_from_scores(scores) -> dict[str, np.ndarray]:
    return {
        "edge_rows": scores.edge_rows,
        "edge_cols": scores.edge_cols,
        "edge_scores": scores.edge_scores,
        "adjacency_change": scores.extras["adjacency_change"],
        "commute_change": scores.extras["commute_change"],
        "node_scores": scores.node_scores,
    }


def _empty_payload(g_t, g_t1) -> dict[str, np.ndarray]:
    """Zero-score payload over the transition's union support."""
    from ..graphs.operations import union_support

    rows, cols = union_support(g_t, g_t1)
    zeros = np.zeros(rows.size)
    return {
        "edge_rows": rows,
        "edge_cols": cols,
        "edge_scores": zeros,
        "adjacency_change": adjacency_change_on_pairs(g_t, g_t1, rows, cols),
        "commute_change": zeros.copy(),
        "node_scores": np.zeros(g_t.num_nodes),
    }


def score_transition_chunk(transitions: tuple[int, ...]) -> dict[str, Any]:
    """Task function for the transition axis.

    Scores each listed transition with the exact serial code path
    (:func:`~repro.core.scores.cad_edge_scores` on the worker-local
    calculator), so payload arrays are bit-for-bit what a serial run
    produces.
    """
    config: WorkerConfig = _STATE["config"]
    snapshots = _STATE["snapshots"]
    calculator: CommuteTimeCalculator = _STATE["calculator"]
    payloads: dict[int, dict[str, np.ndarray]] = {}
    with trace("worker.chunk", transitions=len(transitions)):
        for transition in transitions:
            _chaos(config, transition)
            g_t, g_t1 = snapshots[transition], snapshots[transition + 1]
            try:
                payloads[transition] = _payload_from_scores(
                    cad_edge_scores(g_t, g_t1, calculator)
                )
            except (SolverError, EmbeddingError) as error:
                if not config.skip_unscorable:
                    raise
                calculator.health.record_quarantine(
                    position=transition + 1, time=g_t1.time,
                    reason=f"unscorable transition: {error}",
                )
                payloads[transition] = _empty_payload(g_t, g_t1)
    return {
        "worker": os.getpid(),
        "payloads": payloads,
        "health": calculator.health.state(),
        "metrics": _metrics_state(),
    }
