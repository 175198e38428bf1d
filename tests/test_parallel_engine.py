"""Mechanics of the parallel execution engine: shared memory, chunk
planning, merging, crash handling, checkpoints, and the pipeline/CLI
entry points. Determinism guarantees live in
``tests/test_parallel_determinism.py``."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CadDetector,
    DynamicGraph,
    ParallelCadDetector,
    ParallelExecutionError,
    ReproError,
    detect,
)
from repro.cli import main as cli_main
from repro.exceptions import CheckpointError
from repro.graphs import random_sparse_graph, perturb_weights
from repro.graphs.io import write_temporal_edge_csv
from repro.parallel import (
    AttachedGraphSequence,
    SharedGraphSequence,
    plan_transition_chunks,
)
from repro.parallel.checkpoint import (
    read_parallel_checkpoint,
    sequence_fingerprint,
    write_parallel_checkpoint,
)
from repro.pipeline.api import WORKERS_ENV_VAR
from repro.resilience.chaos import ChaosSpec

from .test_parallel_determinism import assert_reports_bitwise_equal


def make_sequence(num_snapshots=4, n=30, seed=3) -> DynamicGraph:
    snapshot = random_sparse_graph(n, mean_degree=3.0, seed=seed,
                                   connected=True)
    snapshots = [snapshot]
    for step in range(num_snapshots - 1):
        snapshots.append(perturb_weights(
            snapshots[-1], relative_noise=0.1, seed=seed + step + 1,
        ))
    return DynamicGraph(snapshots)


def disconnected_sequence(num_snapshots=3, blocks=3, block_size=8,
                          seed=0) -> DynamicGraph:
    rng = np.random.default_rng(seed)
    n = blocks * block_size
    matrices = []
    for _ in range(num_snapshots):
        full = np.zeros((n, n))
        for b in range(blocks):
            band = (rng.random((block_size, block_size)) < 0.5)
            band = np.triu(band, 1).astype(float)
            sl = slice(b * block_size, (b + 1) * block_size)
            full[sl, sl] = band + band.T
        matrices.append(full)
    return DynamicGraph.from_adjacencies(matrices)


# -- shared memory ----------------------------------------------------------


def test_shared_sequence_roundtrip(small_dynamic_graph):
    store = SharedGraphSequence.publish(small_dynamic_graph)
    try:
        attached = AttachedGraphSequence(store.spec)
        assert len(attached.matrices) == len(small_dynamic_graph)
        # Copy out of the views before closing: a live view would pin
        # the mapping and close() must be able to drop it.
        dense = [matrix.toarray() for matrix in attached.matrices]
        for original, copied in zip(small_dynamic_graph, dense):
            assert np.array_equal(original.adjacency.toarray(), copied)
        assert attached.times == list(small_dynamic_graph.times)
        attached.close()
    finally:
        store.cleanup()


def test_shared_sequence_cleanup_is_idempotent(small_dynamic_graph):
    store = SharedGraphSequence.publish(small_dynamic_graph)
    store.cleanup()
    store.cleanup()
    with pytest.raises(ParallelExecutionError):
        AttachedGraphSequence(store.spec)


def test_shared_sequence_preserves_time_labels():
    graph = DynamicGraph.from_adjacencies(
        [np.eye(3) * 0, np.eye(3) * 0], times=["jan", "feb"],
    )
    store = SharedGraphSequence.publish(graph)
    try:
        attached = AttachedGraphSequence(store.spec)
        assert attached.times == ["jan", "feb"]
        attached.close()
    finally:
        store.cleanup()


# -- shard planning ---------------------------------------------------------


def test_transition_chunks_are_contiguous_and_complete():
    chunks = plan_transition_chunks(range(10), workers=3)
    covered = [t for chunk in chunks for t in chunk]
    assert covered == list(range(10))
    for chunk in chunks:
        assert list(chunk) == list(range(chunk[0], chunk[-1] + 1))


def test_transition_chunks_split_at_gaps():
    chunks = plan_transition_chunks([0, 1, 4, 5, 6], workers=1)
    assert all(
        list(chunk) == list(range(chunk[0], chunk[-1] + 1))
        for chunk in chunks
    )
    assert sorted(t for c in chunks for t in c) == [0, 1, 4, 5, 6]


def test_shard_by_is_validated_and_selects_nothing():
    """``shard_by`` is kept for compatibility: every recognised value
    runs the transition axis, so ``"component"`` on the approximate
    backend scores a disconnected sequence exactly like serial."""
    graph = disconnected_sequence()
    serial = CadDetector(method="approx", k=8, seed=1).detect(
        graph, anomalies_per_transition=3
    )
    parallel = ParallelCadDetector(
        workers=2, shard_by="component", method="approx", k=8, seed=1,
    ).detect(graph, anomalies_per_transition=3)
    assert_reports_bitwise_equal(serial, parallel)
    with pytest.raises(ParallelExecutionError):
        ParallelCadDetector(workers=2, shard_by="bogus")


# -- failure handling -------------------------------------------------------


def test_worker_crash_raises_parallel_execution_error():
    graph = make_sequence()
    detector = ParallelCadDetector(
        workers=2, shard_by="transition", seed=1,
        chaos=ChaosSpec(kill_transitions=(1,), attempts=None),
    )
    with pytest.raises(ParallelExecutionError):
        detector.detect(graph, anomalies_per_transition=3)


def test_parallel_execution_error_is_repro_error():
    # The CLI's 0/1/2 exit-code contract hinges on this subclassing.
    assert issubclass(ParallelExecutionError, ReproError)


def test_invalid_worker_count_rejected():
    with pytest.raises(ParallelExecutionError):
        ParallelCadDetector(workers=0)


# -- checkpointing ----------------------------------------------------------


def test_checkpoint_roundtrip_and_fingerprint_guard(tmp_path):
    graph = make_sequence()
    other = make_sequence(seed=99)
    path = tmp_path / "partial.npz"
    payload = {
        "edge_rows": np.array([0, 1]),
        "edge_cols": np.array([2, 3]),
        "edge_scores": np.array([0.5, 0.25]),
        "adjacency_change": np.array([1.0, 0.5]),
        "commute_change": np.array([0.5, 0.5]),
        "node_scores": np.zeros(graph.num_nodes),
    }
    health = {"0": {"solves_by_backend": {"cg": 4}, "retries_spent": 0,
                    "failed_solves": 0, "quarantined": [],
                    "snapshots_repaired": 0, "repairs_applied": 0}}
    fingerprint = sequence_fingerprint(graph)
    write_parallel_checkpoint(path, fingerprint, {1: payload}, health)
    restored, restored_health = read_parallel_checkpoint(path, fingerprint)
    assert set(restored) == {1}
    for name, value in payload.items():
        assert np.array_equal(restored[1][name], value)
    assert restored_health == health
    with pytest.raises(CheckpointError):
        read_parallel_checkpoint(path, sequence_fingerprint(other))


def test_checkpoint_resume_skips_completed_transitions(tmp_path):
    graph = make_sequence(num_snapshots=5)
    path = tmp_path / "run.npz"
    baseline = ParallelCadDetector(workers=2, seed=4).detect(
        graph, anomalies_per_transition=3
    )
    first = ParallelCadDetector(workers=2, seed=4, checkpoint_path=path)
    first.detect(graph, anomalies_per_transition=3)
    assert path.exists()
    payloads, _health = read_parallel_checkpoint(path)
    assert sorted(payloads) == list(range(graph.num_transitions))
    # Resume with crashes armed on already-completed transitions: the
    # checkpoint must prevent them from ever being scored again.
    resumed = ParallelCadDetector(
        workers=2, seed=4, checkpoint_path=path,
        chaos=ChaosSpec(kill_transitions=range(graph.num_transitions),
                        attempts=None),
    ).detect(graph, anomalies_per_transition=3)
    assert resumed.threshold == baseline.threshold
    for ours, theirs in zip(resumed.transitions, baseline.transitions):
        assert np.array_equal(ours.scores.edge_scores,
                              theirs.scores.edge_scores)


def test_crash_then_resume_completes_the_run(tmp_path):
    graph = make_sequence(num_snapshots=5)
    path = tmp_path / "crashy.npz"
    crashy = ParallelCadDetector(
        workers=2, seed=4, chunk_size=1, checkpoint_path=path,
        chaos=ChaosSpec(kill_transitions=(graph.num_transitions - 1,),
                        attempts=None),
    )
    with pytest.raises(ParallelExecutionError):
        crashy.detect(graph, anomalies_per_transition=3)
    resumed = ParallelCadDetector(
        workers=2, seed=4, checkpoint_path=path,
    ).detect(graph, anomalies_per_transition=3)
    baseline = CadDetector(seed=4, seed_mode="content").detect(
        graph, anomalies_per_transition=3
    )
    assert resumed.threshold == baseline.threshold


# -- pipeline and CLI entry points ------------------------------------------


def test_detect_workers_argument_matches_serial(small_dynamic_graph):
    serial = detect(small_dynamic_graph, anomalies_per_transition=3)
    parallel = detect(small_dynamic_graph, anomalies_per_transition=3,
                      workers=2)
    assert parallel.threshold == serial.threshold
    for ours, theirs in zip(parallel.transitions, serial.transitions):
        assert ours.anomalous_edges == theirs.anomalous_edges


def test_workers_env_var_routes_to_parallel_engine(
        small_dynamic_graph, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV_VAR, "2")
    report = detect(small_dynamic_graph, anomalies_per_transition=3)
    monkeypatch.delenv(WORKERS_ENV_VAR)
    serial = detect(small_dynamic_graph, anomalies_per_transition=3)
    assert report.threshold == serial.threshold


def test_workers_env_var_garbage_is_ignored(
        small_dynamic_graph, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV_VAR, "not-a-number")
    report = detect(small_dynamic_graph, anomalies_per_transition=3)
    assert report.detector == "CAD"


def test_cli_detect_workers_smoke(tmp_path, capsys):
    graph = make_sequence(num_snapshots=3, n=20)
    csv_path = tmp_path / "graph.csv"
    write_temporal_edge_csv(graph, csv_path)
    assert cli_main([
        "detect", str(csv_path), "-l", "2", "--seed", "3",
    ]) == 0
    serial_out = capsys.readouterr().out
    assert cli_main([
        "detect", str(csv_path), "-l", "2", "--seed", "3",
        "--workers", "2", "--shard-by", "transition",
    ]) == 0
    parallel_out = capsys.readouterr().out
    assert parallel_out == serial_out


def test_non_cad_detectors_ignore_workers(small_dynamic_graph):
    report = detect(small_dynamic_graph, detector="adj",
                    anomalies_per_transition=3, workers=4)
    assert report.detector == "ADJ"
