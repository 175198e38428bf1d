"""Deterministic merge of worker payloads back into serial-shaped results.

Workers return plain arrays keyed by transition index. The merge is
therefore pure bookkeeping with a fixed order — transition 0, 1, 2,
... — so the assembled :class:`~repro.core.results.TransitionScores`
list does not depend on task completion order, worker count, or
scheduling at all.

Health accounting merges by summation: each worker's cumulative
:class:`~repro.resilience.health.HealthMonitor` state is kept tagged by
worker id (exposed as
:attr:`~repro.parallel.engine.ParallelCadDetector.last_worker_health`)
and folded into one sequence-wide report whose quarantine records are
sorted back into stream order.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.results import TransitionScores
from ..exceptions import ParallelExecutionError
from ..graphs.dynamic import DynamicGraph
from ..resilience.health import HealthMonitor, HealthReport
from .worker import PAYLOAD_ARRAYS


def assemble_transition_scores(graph: DynamicGraph,
                               payloads: dict[int, dict[str, np.ndarray]],
                               ) -> list[TransitionScores]:
    """Rebuild the serial ``score_sequence`` output from merged payloads.

    Scores are assembled against the graph's *real* labelled universe
    (workers only ever see integer indices), in transition order.
    """
    missing = [
        t for t in range(graph.num_transitions) if t not in payloads
    ]
    if missing:
        raise ParallelExecutionError(
            f"merge is missing transitions {missing[:8]}"
            + ("..." if len(missing) > 8 else "")
        )
    scored = []
    for transition in range(graph.num_transitions):
        payload = payloads[transition]
        if set(PAYLOAD_ARRAYS) - set(payload):
            raise ParallelExecutionError(
                f"transition {transition}: malformed payload (has "
                f"{sorted(payload)})"
            )
        scored.append(TransitionScores(
            universe=graph.universe,
            edge_rows=np.asarray(payload["edge_rows"], dtype=np.int64),
            edge_cols=np.asarray(payload["edge_cols"], dtype=np.int64),
            edge_scores=np.asarray(payload["edge_scores"]),
            node_scores=np.asarray(payload["node_scores"]),
            detector="CAD",
            extras={
                "adjacency_change": np.asarray(
                    payload["adjacency_change"]
                ),
                "commute_change": np.asarray(payload["commute_change"]),
            },
        ))
    return scored


def merge_worker_health(states: dict[str, dict[str, Any]],
                        ) -> tuple[HealthReport, dict[str, HealthReport]]:
    """Fold per-worker health states into one sequence-wide report.

    Returns:
        ``(merged, per_worker)`` — the merged report sums every
        counter across workers and re-sorts quarantine records into
        stream order; ``per_worker`` keeps each worker's own report
        tagged by worker id for diagnostics.
    """
    per_worker: dict[str, HealthReport] = {}
    merged_solves: dict[str, int] = {}
    retries = 0
    failed = 0
    repaired = 0
    repairs = 0
    quarantined = []
    for worker_id in sorted(states):
        monitor = HealthMonitor()
        monitor.load_state(states[worker_id])
        report = monitor.report()
        per_worker[str(worker_id)] = report
        for backend, count in report.solves_by_backend.items():
            merged_solves[backend] = merged_solves.get(backend, 0) + count
        retries += report.retries_spent
        failed += report.failed_solves
        repaired += report.snapshots_repaired
        repairs += report.repairs_applied
        quarantined.extend(report.quarantined)
    quarantined.sort(key=lambda record: (record.position, str(record.time)))
    merged = HealthReport(
        solves_by_backend=merged_solves,
        retries_spent=retries,
        failed_solves=failed,
        quarantined=tuple(quarantined),
        snapshots_repaired=repaired,
        repairs_applied=repairs,
    )
    return merged, per_worker
