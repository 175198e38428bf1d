"""The parallel CAD execution engine.

:class:`ParallelCadDetector` is a :class:`~repro.core.cad.CadDetector`
that scores a sequence with a process pool instead of a loop:

1. the parent publishes every snapshot to shared memory once
   (:mod:`repro.parallel.shm`);
2. the transitions are split into contiguous chunks
   (:mod:`repro.parallel.sharding`);
3. pool workers score their shards with worker-local calculators that
   share the parent's edge-keyed JL projection
   (:mod:`repro.parallel.worker`);
4. the parent merges payloads back in transition order
   (:mod:`repro.parallel.merge`), selects δ, and builds the report
   with the exact serial code path.

Determinism contract (tested in ``tests/test_parallel_determinism.py``):
every run reproduces a serial run *bit for bit* for any worker count
and any ``shard_by`` with the delta tier off (``delta_budget=0``, the
default without a factor cache); with it on, each ``L^+`` advances from
the previous snapshot's, so scores depend on where chunks start and
agree with serial only within the tier's tolerance.

Execution is *self-healing*: tasks run on a
:class:`~repro.parallel.supervisor.SupervisedPool` that detects worker
death and hangs (heartbeats + per-shard deadlines), requeues lost
shards onto surviving workers, and respawns workers with capped
exponential backoff. Only exhausted retry/restart budgets escalate to
:class:`~repro.exceptions.ParallelExecutionError`; pass
``checkpoint_path`` to make even that resumable.
"""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path
from typing import Any

import numpy as np

from ..core.cad import CadDetector, build_report
from ..core.results import DetectionReport, TransitionScores
from ..core.thresholds import select_global_threshold
from ..exceptions import DetectionError, ParallelExecutionError
from ..graphs.dynamic import DynamicGraph
from ..observability import current_registry, enabled, set_gauge, trace
from ..resilience.chaos import ChaosSpec
from ..resilience.health import HealthReport
from .checkpoint import (
    read_parallel_checkpoint,
    sequence_fingerprint,
    write_parallel_checkpoint,
)
from .merge import assemble_transition_scores, merge_worker_health
from .sharding import plan_transition_chunks, validate_shard_mode
from .shm import SharedGraphSequence
from .supervisor import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_HEARTBEAT_TIMEOUT,
    DEFAULT_MAX_SHARD_RETRIES,
    DEFAULT_MAX_WORKER_RESTARTS,
    SupervisedPool,
)
from .worker import WorkerConfig, score_transition_chunk


def default_worker_count() -> int:
    """CPU count of the machine (at least 1)."""
    return max(os.cpu_count() or 1, 1)


class ParallelCadDetector(CadDetector):
    """CAD over a process pool, reproducing serial results.

    Args:
        workers: pool size; defaults to the machine's CPU count. The
            pool never exceeds the task count.
        shard_by: one of ``"transition"``, ``"component"`` or
            ``"auto"``; validated and kept for compatibility, every
            value shards by transition.
        chunk_size: transitions per task; defaults to
            ``ceil(T / workers)`` (one contiguous run per worker,
            maximising backend-cache reuse).
        checkpoint_path: when set, completed transitions are written
            here periodically and a rerun over the same input resumes
            from them.
        checkpoint_every: write the checkpoint after this many newly
            completed transitions (default 1: after every one).
        skip_unscorable: degrade instead of raising when a transition
            cannot be scored — zero scores plus a quarantine record in
            the health report (the streaming detector's lenient
            semantics).
        max_worker_restarts: total worker-respawn budget per run; dead
            workers are respawned with capped exponential backoff
            until it is spent.
        max_shard_retries: how many times one lost shard is requeued
            before the run escalates to ``ParallelExecutionError``.
        shard_deadline: seconds one shard may run before its worker is
            declared hung, killed, and the shard requeued (``None``
            disables the deadline).
        heartbeat_interval: worker heartbeat period for the supervisor
            (0/``None`` disables heartbeat supervision).
        heartbeat_timeout: tolerated heartbeat silence before a worker
            is declared wedged.
        chaos: optional :class:`~repro.resilience.chaos.ChaosSpec`
            injecting deterministic process faults into workers (test
            and chaos-drill hook).
        **options: commute-time backend configuration, as in
            :class:`~repro.core.cad.CadDetector`. Every worker rebuilds
            the parent's calculator from its
            :meth:`~repro.core.commute.CommuteTimeCalculator.spec`, whose
            ``seed`` keys the same JL projection in every process.
            With a factor cache (:mod:`repro.linalg.factorcache`) each
            pool worker gets its own process-local cache
            (``"shared"`` is shared *within* a worker process across
            its chunks); cache hit counters merge back into the
            parent's metrics registry with the rest of the worker
            metrics.
    """

    def __init__(self, workers: int | None = None,
                 shard_by: str = "auto",
                 chunk_size: int | None = None,
                 checkpoint_path: str | Path | None = None,
                 checkpoint_every: int = 1,
                 skip_unscorable: bool = False,
                 max_worker_restarts: int = DEFAULT_MAX_WORKER_RESTARTS,
                 max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
                 shard_deadline: float | None = None,
                 heartbeat_interval: float | None =
                 DEFAULT_HEARTBEAT_INTERVAL,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 chaos: ChaosSpec | None = None,
                 **options):
        if workers is not None and workers < 1:
            raise ParallelExecutionError(
                f"workers must be >= 1, got {workers}"
            )
        validate_shard_mode(shard_by)
        self._workers = workers
        self._chunk_size = chunk_size
        self._checkpoint_path = (
            None if checkpoint_path is None else Path(checkpoint_path)
        )
        self._checkpoint_every = max(int(checkpoint_every), 1)
        self._skip_unscorable = bool(skip_unscorable)
        self._max_worker_restarts = int(max_worker_restarts)
        self._max_shard_retries = int(max_shard_retries)
        self._shard_deadline = shard_deadline
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = float(heartbeat_timeout)
        self._chaos = chaos
        super().__init__(**options)
        #: Per-worker health reports of the last run, keyed by worker id
        #: (process id, or ``ckpt:``-prefixed for restored state).
        self.last_worker_health: dict[str, HealthReport] = {}
        #: Per-worker metrics states of the last run (same keys as
        #: :attr:`last_worker_health`); populated only while metrics
        #: collection is enabled in the parent.
        self.last_worker_metrics: dict[str, dict[str, Any]] = {}
        #: Supervision events of the last run (worker respawns and
        #: shard requeues) — zero on an undisturbed run.
        self.last_pool_restarts = 0
        self.last_pool_retries = 0
        self._last_health: HealthReport | None = None

    @classmethod
    def from_detector(cls, detector, workers: int | None = None,
                      shard_by: str = "auto",
                      **options) -> "ParallelCadDetector":
        """Parallel twin of an existing serial ``CadDetector``.

        Copies the serial detector's backend configuration (method, k,
        projection root, solver, limits), so both score identically.
        """
        spec = detector.calculator.spec()
        return cls(workers=workers, shard_by=shard_by, **spec, **options)

    @property
    def workers(self) -> int:
        """The configured pool size."""
        return self._workers or default_worker_count()

    def score_sequence(self, graph: DynamicGraph) -> list[TransitionScores]:
        """Score every transition using the process pool."""
        if len(graph) < 2:
            raise DetectionError(
                "scoring a sequence needs at least two snapshots, got "
                f"{len(graph)}"
            )
        payloads, worker_states = self._run(graph)
        merged, per_worker = merge_worker_health(worker_states)
        self._last_health = merged
        self.last_worker_health = per_worker
        return assemble_transition_scores(graph, payloads)

    def detect(self, graph: DynamicGraph,
               anomalies_per_transition: int | None = None,
               delta: float | None = None) -> DetectionReport:
        """Algorithm 1 over the pool; same contract as the serial
        :meth:`~repro.core.cad.CadDetector.detect`."""
        if (anomalies_per_transition is None) == (delta is None):
            raise DetectionError(
                "specify exactly one of anomalies_per_transition or delta"
            )
        scored = self.score_sequence(graph)
        if delta is None:
            delta = select_global_threshold(scored, anomalies_per_transition)
        health = self._last_health
        return build_report(
            graph, scored, delta, self.name,
            health=None if health is None or health.is_empty() else health,
        )

    # -- pool orchestration --------------------------------------------------

    def _publish_sequence(self, graph: DynamicGraph):
        """Transport hook: make the snapshots reachable by workers.

        Returns ``(sequence_spec, cleanup)``. The default publishes
        the sequence to shared memory; remote transports (which ship
        the CSR arrays over the wire instead) return ``(None, noop)``.
        """
        store = SharedGraphSequence.publish(graph)
        return store.spec, store.cleanup

    def _make_transport(self, config: WorkerConfig,
                        graph: DynamicGraph, pool_size: int):
        """Transport hook: where the pool draws its workers from.

        ``None`` keeps the default
        :class:`~repro.parallel.transport.LocalProcessTransport`;
        :class:`~repro.cluster.ClusterEngine` overrides this to adopt
        registered remote workers over the socket transport.
        """
        return None

    def _run(self, graph: DynamicGraph,
             ) -> tuple[dict[int, dict[str, np.ndarray]],
                        dict[str, dict[str, Any]]]:
        resolved_method = self._calculator.resolve_method(graph.num_nodes)
        payloads: dict[int, dict[str, np.ndarray]] = {}
        worker_states: dict[str, dict[str, Any]] = {}
        fingerprint = None
        if self._checkpoint_path is not None:
            fingerprint = sequence_fingerprint(graph)
            if self._checkpoint_path.exists():
                payloads, restored = read_parallel_checkpoint(
                    self._checkpoint_path, fingerprint
                )
                worker_states = {
                    f"ckpt:{worker}": state
                    for worker, state in restored.items()
                }
        remaining = [
            t for t in range(graph.num_transitions) if t not in payloads
        ]
        if not remaining:
            return payloads, worker_states

        tasks = [
            (score_transition_chunk, chunk)
            for chunk in plan_transition_chunks(
                remaining, self.workers, self._chunk_size
            )
        ]
        newly_completed = 0
        worker_metrics: dict[str, dict[str, Any]] = {}
        sequence_spec, sequence_cleanup = self._publish_sequence(graph)
        try:
            config = WorkerConfig(
                sequence=sequence_spec,
                calculator={**self._calculator.spec(),
                            "method": resolved_method},
                skip_unscorable=self._skip_unscorable,
                unregister_shm=multiprocessing.get_start_method() != "fork",
                collect_metrics=enabled(),
                chaos=self._chaos,
            )
            pool_size = max(1, min(self.workers, len(tasks)))
            set_gauge("parallel_pool_size", pool_size)
            pool = SupervisedPool(
                pool_size, config,
                max_worker_restarts=self._max_worker_restarts,
                max_shard_retries=self._max_shard_retries,
                shard_deadline=self._shard_deadline,
                heartbeat_interval=self._heartbeat_interval,
                heartbeat_timeout=self._heartbeat_timeout,
                transport=self._make_transport(config, graph, pool_size),
            )
            with trace("parallel.run", tasks=len(tasks),
                       workers=pool_size), pool:
                for result in pool.run(tasks):
                    worker_states[str(result["worker"])] = result["health"]
                    if result.get("metrics") is not None:
                        # States are cumulative per worker, so the
                        # last result to arrive carries the whole
                        # worker's history.
                        worker_metrics[str(result["worker"])] = (
                            result["metrics"]
                        )
                    payloads.update(result["payloads"])
                    newly_completed += len(result["payloads"])
                    if (
                        self._checkpoint_path is not None
                        and newly_completed >= self._checkpoint_every
                    ):
                        write_parallel_checkpoint(
                            self._checkpoint_path, fingerprint,
                            payloads, worker_states,
                        )
                        newly_completed = 0
            self.last_pool_restarts = pool.restarts
            self.last_pool_retries = pool.retries
        except ParallelExecutionError:
            # Supervision gave up (budgets exhausted / no workers
            # left): persist completed work before escalating.
            if self._checkpoint_path is not None:
                write_parallel_checkpoint(
                    self._checkpoint_path, fingerprint,
                    payloads, worker_states,
                )
            raise
        finally:
            sequence_cleanup()

        if self._checkpoint_path is not None and newly_completed:
            write_parallel_checkpoint(
                self._checkpoint_path, fingerprint, payloads,
                worker_states,
            )
        self.last_worker_metrics = worker_metrics
        registry = current_registry()
        if registry is not None:
            # Fold each worker's cumulative metrics into the parent's
            # registry so the merged document covers the whole run.
            # Metrics deliberately stay out of parallel checkpoints:
            # they describe a run, not the work completed.
            for state in worker_metrics.values():
                registry.merge_state(state)
        return payloads, worker_states
