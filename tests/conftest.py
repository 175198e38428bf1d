"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.graphs import (
    DynamicGraph,
    GraphSnapshot,
    NodeUniverse,
    community_pair_graph,
    perturb_weights,
    random_sparse_graph,
)


#: Background threads of a session manager; whoever starts one stops
#: it (``drain()`` or ``abandon()``), or it keeps renewing leases
#: through its store for the rest of the session.
MANAGER_THREADS = ("lease-heartbeat", "replica-catalog")


@pytest.fixture(autouse=True)
def no_leaked_manager_threads():
    """Fail a test that leaves a session manager's thread running."""
    before = set(threading.enumerate())
    yield
    leaked = sorted(
        thread.name for thread in threading.enumerate()
        if thread not in before and thread.name in MANAGER_THREADS
    )
    if leaked:
        pytest.fail(f"test left session-manager threads running: "
                    f"{leaked}")


@pytest.fixture
def path_graph() -> GraphSnapshot:
    """Unweighted path 0-1-2-3 (commute times known in closed form)."""
    adjacency = np.zeros((4, 4))
    for i in range(3):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    return GraphSnapshot(adjacency)


@pytest.fixture
def triangle_graph() -> GraphSnapshot:
    """Weighted triangle with distinct weights."""
    adjacency = np.array([
        [0.0, 1.0, 2.0],
        [1.0, 0.0, 3.0],
        [2.0, 3.0, 0.0],
    ])
    return GraphSnapshot(adjacency)


@pytest.fixture
def disconnected_graph() -> GraphSnapshot:
    """Two disjoint edges: components {0,1} and {2,3}."""
    adjacency = np.zeros((4, 4))
    adjacency[0, 1] = adjacency[1, 0] = 1.0
    adjacency[2, 3] = adjacency[3, 2] = 2.0
    return GraphSnapshot(adjacency)


@pytest.fixture
def random_connected_graph() -> GraphSnapshot:
    """A 60-node connected random graph (deterministic seed)."""
    return random_sparse_graph(60, mean_degree=4.0, seed=11, connected=True)


@pytest.fixture
def small_dynamic_graph() -> DynamicGraph:
    """Two-community graph with one injected cross-community edge."""
    first = community_pair_graph(community_size=20, p_in=0.5,
                                 p_out=0.05, seed=5)
    drifted = perturb_weights(first, relative_noise=0.02, seed=6)
    matrix = drifted.adjacency.tolil()
    matrix[0, 39] = matrix[39, 0] = 3.0
    second = GraphSnapshot(matrix.tocsr(), first.universe)
    return DynamicGraph([first, second])


@pytest.fixture
def labeled_universe() -> NodeUniverse:
    return NodeUniverse(["alice", "bob", "carol", "dave"])
