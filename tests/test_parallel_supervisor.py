"""Self-healing mechanics of the supervised worker pool: a killed or
hung worker loses its shard but not the run — the shard is requeued,
the worker respawned, and the merged report stays bit-for-bit equal to
an undisturbed serial run. Escalation fires only once budgets are
spent. Chaos injection itself is covered in
``tests/test_resilience_chaos.py``."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CadDetector,
    DynamicGraph,
    ParallelCadDetector,
    ParallelExecutionError,
)
from repro.core.commute import CommuteTimeCalculator
from repro.graphs import perturb_weights, random_sparse_graph
from repro.linalg.solvers import _thread_budget
from repro.observability import build_metrics_document, collecting
from repro.parallel.shm import SharedGraphSequence
from repro.parallel.supervisor import SupervisedPool
from repro.parallel.worker import WorkerConfig
from repro.resilience.chaos import ChaosSpec


def make_sequence(num_snapshots=4, n=30, seed=3) -> DynamicGraph:
    snapshot = random_sparse_graph(n, mean_degree=3.0, seed=seed,
                                   connected=True)
    snapshots = [snapshot]
    for step in range(num_snapshots - 1):
        snapshots.append(perturb_weights(
            snapshots[-1], relative_noise=0.1, seed=seed + step + 1,
        ))
    return DynamicGraph(snapshots)


def assert_reports_identical(ours, theirs) -> None:
    assert ours.threshold == theirs.threshold
    assert len(ours.transitions) == len(theirs.transitions)
    for mine, other in zip(ours.transitions, theirs.transitions):
        assert mine.anomalous_edges == other.anomalous_edges
        assert mine.anomalous_nodes == other.anomalous_nodes
        assert np.array_equal(mine.scores.edge_scores,
                              other.scores.edge_scores)
        assert np.array_equal(mine.scores.node_scores,
                              other.scores.node_scores)


class TestHealing:
    def test_killed_worker_heals_bit_for_bit(self):
        graph = make_sequence(num_snapshots=5)
        serial = CadDetector(seed=4, seed_mode="content").detect(
            graph, anomalies_per_transition=3
        )
        detector = ParallelCadDetector(
            workers=2, shard_by="transition", chunk_size=1, seed=4,
            chaos=ChaosSpec(kill_transitions=(1,)),  # first attempt dies
        )
        healed = detector.detect(graph, anomalies_per_transition=3)
        assert_reports_identical(healed, serial)
        assert detector.last_pool_retries >= 1

    def test_requeue_on_survivors_with_no_restart_budget(self):
        # max_worker_restarts=0: the killed worker is never replaced,
        # the surviving worker picks the requeued shard up.
        graph = make_sequence(num_snapshots=5)
        serial = CadDetector(seed=4, seed_mode="content").detect(
            graph, anomalies_per_transition=3
        )
        detector = ParallelCadDetector(
            workers=2, shard_by="transition", chunk_size=1, seed=4,
            chaos=ChaosSpec(kill_transitions=(1,)),
            max_worker_restarts=0,
        )
        healed = detector.detect(graph, anomalies_per_transition=3)
        assert_reports_identical(healed, serial)
        assert detector.last_pool_restarts == 0
        assert detector.last_pool_retries >= 1

    def test_hung_worker_reaped_by_shard_deadline(self):
        graph = make_sequence(num_snapshots=4)
        serial = CadDetector(seed=4, seed_mode="content").detect(
            graph, anomalies_per_transition=3
        )
        detector = ParallelCadDetector(
            workers=2, shard_by="transition", chunk_size=1, seed=4,
            chaos=ChaosSpec(hang_transitions=(1,), hang_seconds=30.0),
            shard_deadline=0.8,
        )
        healed = detector.detect(graph, anomalies_per_transition=3)
        assert_reports_identical(healed, serial)
        assert detector.last_pool_retries >= 1

    def test_straggler_changes_nothing(self):
        graph = make_sequence(num_snapshots=4)
        serial = CadDetector(seed=4, seed_mode="content").detect(
            graph, anomalies_per_transition=3
        )
        detector = ParallelCadDetector(
            workers=2, shard_by="transition", chunk_size=1, seed=4,
            chaos=ChaosSpec(slow_transitions=(0, 1, 2),
                            slow_seconds=0.01),
        )
        report = detector.detect(graph, anomalies_per_transition=3)
        assert_reports_identical(report, serial)
        assert detector.last_pool_retries == 0
        assert detector.last_pool_restarts == 0


class TestEscalation:
    def test_permanent_kill_exhausts_retries_and_escalates(self):
        graph = make_sequence(num_snapshots=4)
        detector = ParallelCadDetector(
            workers=2, shard_by="transition", chunk_size=1, seed=4,
            chaos=ChaosSpec(kill_transitions=(1,), attempts=None),
        )
        with pytest.raises(ParallelExecutionError) as excinfo:
            detector.detect(graph, anomalies_per_transition=3)
        assert "checkpoint_path" in str(excinfo.value)

    def test_fault_tolerated_up_to_retry_budget(self):
        # attempts=2 kills the first attempt AND its first retry; with
        # max_shard_retries=2 the second retry still lands the shard.
        graph = make_sequence(num_snapshots=4)
        serial = CadDetector(seed=4, seed_mode="content").detect(
            graph, anomalies_per_transition=3
        )
        detector = ParallelCadDetector(
            workers=2, shard_by="transition", chunk_size=1, seed=4,
            chaos=ChaosSpec(kill_transitions=(1,), attempts=2),
            max_shard_retries=2,
        )
        healed = detector.detect(graph, anomalies_per_transition=3)
        assert_reports_identical(healed, serial)
        assert detector.last_pool_retries >= 2

    def test_fault_beyond_retry_budget_escalates(self):
        graph = make_sequence(num_snapshots=4)
        detector = ParallelCadDetector(
            workers=2, shard_by="transition", chunk_size=1, seed=4,
            chaos=ChaosSpec(kill_transitions=(1,), attempts=2),
            max_shard_retries=1,
        )
        with pytest.raises(ParallelExecutionError):
            detector.detect(graph, anomalies_per_transition=3)


class TestObservability:
    def test_supervision_counters_recorded(self):
        graph = make_sequence(num_snapshots=5)
        detector = ParallelCadDetector(
            workers=2, shard_by="transition", chunk_size=1, seed=4,
            chaos=ChaosSpec(kill_transitions=(1,)),
        )
        with collecting() as registry:
            detector.detect(graph, anomalies_per_transition=3)
        document = build_metrics_document(registry)
        counters = document["counters"]
        names = {entry["name"] for entry in counters}
        assert "parallel_shard_retries_total" in names
        assert detector.last_pool_retries >= 1

    def test_checkpoint_written_when_escalating(self, tmp_path):
        # The escalation message directs users to resume; the partial
        # checkpoint it references must actually exist and work.
        graph = make_sequence(num_snapshots=5)
        path = tmp_path / "partial.npz"
        detector = ParallelCadDetector(
            workers=2, shard_by="transition", chunk_size=1, seed=4,
            checkpoint_path=path,
            chaos=ChaosSpec(kill_transitions=(1,), attempts=None),
        )
        with pytest.raises(ParallelExecutionError):
            detector.detect(graph, anomalies_per_transition=3)
        assert path.exists()
        resumed = ParallelCadDetector(
            workers=2, seed=4, checkpoint_path=path,
        ).detect(graph, anomalies_per_transition=3)
        serial = CadDetector(seed=4, seed_mode="content").detect(
            graph, anomalies_per_transition=3
        )
        assert_reports_identical(resumed, serial)


def _worker_thread_budget(_task) -> int:
    return _thread_budget()


class TestThreadShare:
    """Local workers split the parent's block-CG thread budget."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_each_worker_reads_its_share(self, monkeypatch, workers):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        parent = _thread_budget()
        expected = max(1, parent // workers)
        calculator = CommuteTimeCalculator(method="exact").spec()
        with SharedGraphSequence.publish(make_sequence()) as store:
            config = WorkerConfig(sequence=store.spec,
                                  calculator=calculator)
            with SupervisedPool(workers, config) as pool:
                budgets = list(pool.run(
                    [(_worker_thread_budget, task)
                     for task in range(2 * workers)]
                ))
        assert budgets == [expected] * (2 * workers)
        assert _thread_budget() == parent

    def test_scores_independent_of_share(self):
        # Column groups depend on n and k only (two groups of 25 here),
        # so workers on their share score as the parent does on its
        # whole budget.
        graph = make_sequence(n=700)
        options = {"method": "approx", "k": 50, "seed": 4}
        serial = CadDetector(**options).detect(
            graph, anomalies_per_transition=3)
        parallel = ParallelCadDetector(
            workers=4, shard_by="transition", **options
        ).detect(graph, anomalies_per_transition=3)
        assert_reports_identical(serial, parallel)
