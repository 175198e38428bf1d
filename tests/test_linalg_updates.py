"""Unit tests for the rank-one Laplacian pseudoinverse updates."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.graphs import random_sparse_graph
from repro.linalg import (
    laplacian_pseudoinverse,
    rank_one_merge_update,
    rank_one_update,
)


@pytest.fixture
def graph():
    return random_sparse_graph(50, mean_degree=4.0, seed=3,
                               connected=True)


class TestRankOneUpdate:
    def test_matches_recompute_strengthen(self, graph):
        pseudo = laplacian_pseudoinverse(graph.adjacency)
        updated = rank_one_update(pseudo, 0, 1, 2.0)
        edited = graph.adjacency.tolil()
        edited[0, 1] = edited[1, 0] = edited[0, 1] + 2.0
        expected = laplacian_pseudoinverse(edited.tocsr())
        np.testing.assert_allclose(updated, expected, atol=1e-9)

    def test_matches_recompute_weaken(self, graph):
        # weaken an existing edge without deleting it
        adjacency = graph.adjacency.tolil()
        i, j = 0, graph.neighbors(0)[0]
        delta = -0.5 * float(adjacency[i, j])
        pseudo = laplacian_pseudoinverse(graph.adjacency)
        updated = rank_one_update(pseudo, i, j, delta)
        adjacency[i, j] = adjacency[j, i] = adjacency[i, j] + delta
        expected = laplacian_pseudoinverse(adjacency.tocsr())
        np.testing.assert_allclose(updated, expected, atol=1e-8)

    def test_zero_delta_is_identity(self, graph):
        pseudo = laplacian_pseudoinverse(graph.adjacency)
        np.testing.assert_array_equal(
            rank_one_update(pseudo, 0, 1, 0.0), pseudo
        )

    def test_self_loop_rejected(self, graph):
        pseudo = laplacian_pseudoinverse(graph.adjacency)
        with pytest.raises(SolverError):
            rank_one_update(pseudo, 2, 2, 1.0)

    def test_bridge_removal_detected(self):
        # path 0-1-2: deleting edge (1,2) splits the graph
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        adjacency[1, 2] = adjacency[2, 1] = 1.0
        pseudo = laplacian_pseudoinverse(adjacency)
        with pytest.raises(SolverError, match="component"):
            rank_one_update(pseudo, 1, 2, -1.0)


class TestRankOneMergeUpdate:
    def test_matches_recompute(self, disconnected_graph):
        pseudo = laplacian_pseudoinverse(disconnected_graph.adjacency)
        labels = np.array([0, 0, 1, 1])
        updated = rank_one_merge_update(pseudo, 1, 2, 1.3, labels)
        edited = disconnected_graph.adjacency.tolil()
        edited[1, 2] = edited[2, 1] = 1.3
        expected = laplacian_pseudoinverse(edited.tocsr())
        np.testing.assert_allclose(updated, expected, atol=1e-10)

    def test_isolated_node_joining(self):
        # Merging a singleton component exercises size-1 null blocks.
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 2.0
        pseudo = laplacian_pseudoinverse(adjacency)
        updated = rank_one_merge_update(pseudo, 1, 2, 0.5,
                                        np.array([0, 0, 1]))
        adjacency[1, 2] = adjacency[2, 1] = 0.5
        expected = laplacian_pseudoinverse(adjacency)
        np.testing.assert_allclose(updated, expected, atol=1e-10)

    def test_same_component_rejected(self, disconnected_graph):
        pseudo = laplacian_pseudoinverse(disconnected_graph.adjacency)
        with pytest.raises(SolverError, match="share a component"):
            rank_one_merge_update(pseudo, 0, 1, 1.0,
                                  np.array([0, 0, 1, 1]))

    def test_non_positive_weight_rejected(self, disconnected_graph):
        pseudo = laplacian_pseudoinverse(disconnected_graph.adjacency)
        with pytest.raises(SolverError, match="positive"):
            rank_one_merge_update(pseudo, 1, 2, 0.0,
                                  np.array([0, 0, 1, 1]))
