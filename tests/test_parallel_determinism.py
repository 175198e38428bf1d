"""The parallel engine's determinism contract.

Every parallel run reproduces a serial run **bit for bit** — same edge
sets, same tie-breaking, identical score arrays — for any worker count
and any ``shard_by`` value, on both the exact and the approximate
backend, on disconnected graphs (where the exact backend inverts each
component on its own, serial and parallel alike), and with solver
faults injected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CadDetector,
    DynamicGraph,
    EnronLikeSimulator,
    FallbackPolicy,
    FaultInjector,
    ParallelCadDetector,
)
from repro.datasets import toy_example
from repro.graphs import perturb_weights, random_sparse_graph
from repro.parallel import SHARD_MODES

WORKER_COUNTS = (1, 2, 4)


def make_sequence(num_snapshots=4, n=36, seed=7,
                  connected=True) -> DynamicGraph:
    snapshot = random_sparse_graph(n, mean_degree=3.5, seed=seed,
                                   connected=connected)
    snapshots = [snapshot]
    for step in range(num_snapshots - 1):
        snapshots.append(perturb_weights(
            snapshots[-1], relative_noise=0.15, seed=seed + step + 1,
        ))
    return DynamicGraph(snapshots)


def disconnected_sequence(num_snapshots=3, blocks=3, block_size=10,
                          seed=2) -> DynamicGraph:
    rng = np.random.default_rng(seed)
    n = blocks * block_size
    matrices = []
    for _ in range(num_snapshots):
        full = np.zeros((n, n))
        for b in range(blocks):
            band = np.triu(
                (rng.random((block_size, block_size)) < 0.4), 1
            ).astype(float)
            sl = slice(b * block_size, (b + 1) * block_size)
            full[sl, sl] = band + band.T
        matrices.append(full)
    return DynamicGraph.from_adjacencies(matrices)


def assert_reports_bitwise_equal(serial, parallel):
    assert parallel.threshold == serial.threshold
    assert len(parallel.transitions) == len(serial.transitions)
    for ours, theirs in zip(parallel.transitions, serial.transitions):
        assert ours.anomalous_edges == theirs.anomalous_edges
        assert ours.anomalous_nodes == theirs.anomalous_nodes
        assert np.array_equal(ours.scores.edge_rows,
                              theirs.scores.edge_rows)
        assert np.array_equal(ours.scores.edge_cols,
                              theirs.scores.edge_cols)
        assert np.array_equal(ours.scores.edge_scores,
                              theirs.scores.edge_scores)
        assert np.array_equal(ours.scores.node_scores,
                              theirs.scores.node_scores)
        for key, value in theirs.scores.extras.items():
            assert np.array_equal(ours.scores.extras[key], value)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_exact_transition_sharding_is_bitwise_serial(workers):
    graph = make_sequence()
    serial = CadDetector(method="exact", seed=13).detect(
        graph, anomalies_per_transition=3
    )
    parallel = ParallelCadDetector(
        workers=workers, shard_by="transition", method="exact", seed=13,
    ).detect(graph, anomalies_per_transition=3)
    assert_reports_bitwise_equal(serial, parallel)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_approx_content_seeded_sharding_is_bitwise_serial(workers):
    graph = make_sequence()
    serial = CadDetector(
        method="approx", k=12, seed=21, seed_mode="content",
    ).detect(graph, anomalies_per_transition=3)
    parallel = ParallelCadDetector(
        workers=workers, shard_by="transition",
        method="approx", k=12, seed=21,
    ).detect(graph, anomalies_per_transition=3)
    assert_reports_bitwise_equal(serial, parallel)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_faulty_solver_chain_stays_bitwise_serial(workers):
    """Injected CG failures escalate to the deterministic direct solver
    in every process, so even a degraded run merges bit for bit."""
    graph = make_sequence(num_snapshots=3)

    def policy():
        return FallbackPolicy(
            cg_retries=1,
            fault_injector=FaultInjector(
                fail_solves=range(10_000),
                fail_backends=("cg", "cg-retry"),
            ),
        )

    serial = CadDetector(
        method="approx", k=8, seed=5, seed_mode="content",
        solver=policy(),
    ).detect(graph, anomalies_per_transition=3)
    parallel = ParallelCadDetector(
        workers=workers, shard_by="transition",
        method="approx", k=8, seed=5, solver=policy(),
    ).detect(graph, anomalies_per_transition=3)
    assert_reports_bitwise_equal(serial, parallel)
    # Every solve must have been served by a fallback backend.
    assert serial.health is not None and parallel.health is not None
    assert parallel.health.solves_by_backend.get("cg", 0) == 0
    assert parallel.health.fallbacks_taken >= serial.health.fallbacks_taken


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_component_sharding_matches_serial_numerically(workers):
    """On a disconnected exact sequence every ``shard_by`` value
    matches serial bit for bit."""
    graph = disconnected_sequence()
    serial = CadDetector(method="exact", seed=3).detect(
        graph, anomalies_per_transition=3
    )
    for shard_by in SHARD_MODES:
        parallel = ParallelCadDetector(
            workers=workers, shard_by=shard_by, method="exact", seed=3,
        ).detect(graph, anomalies_per_transition=3)
        assert_reports_bitwise_equal(serial, parallel)


def test_toy_dataset_byte_identity():
    graph = toy_example().graph
    serial = CadDetector(seed=7).detect(graph, anomalies_per_transition=4)
    parallel = ParallelCadDetector(workers=4, seed=7).detect(
        graph, anomalies_per_transition=4
    )
    assert_reports_bitwise_equal(serial, parallel)
    assert serial.summary() == parallel.summary()


def test_enron_simulator_byte_identity():
    data = EnronLikeSimulator(seed=11).generate()
    serial = CadDetector(seed=7).detect(
        data.graph, anomalies_per_transition=5
    )
    parallel = ParallelCadDetector(workers=4, seed=7).detect(
        data.graph, anomalies_per_transition=5
    )
    assert_reports_bitwise_equal(serial, parallel)
    assert serial.summary() == parallel.summary()


def test_from_detector_copies_backend_configuration():
    serial = CadDetector(method="exact", k=17, seed=99)
    parallel = ParallelCadDetector.from_detector(serial, workers=2)
    assert parallel.calculator.spec()["k"] == 17
    assert parallel.calculator.spec()["seed"] == 99
