"""Unit tests for graph builders."""

import numpy as np
import pytest

from repro.exceptions import GraphConstructionError
from repro.graphs import (
    gaussian_similarity_graph,
    knn_graph,
    snapshot_from_dense,
    snapshot_from_edges,
    snapshot_from_networkx,
    universe_from_edges,
)


class TestUniverseFromEdges:
    def test_order_of_first_appearance(self):
        universe = universe_from_edges([
            [("b", "a", 1.0)],
            [("c", "a", 1.0)],
        ])
        assert universe.labels == ("b", "a", "c")

    def test_rejects_empty(self):
        with pytest.raises(GraphConstructionError):
            universe_from_edges([[]])


class TestSnapshotFromEdges:
    def test_basic(self, labeled_universe):
        snapshot = snapshot_from_edges(
            [("alice", "bob", 2.0)], labeled_universe
        )
        assert snapshot.weight("alice", "bob") == 2.0
        assert snapshot.weight("bob", "alice") == 2.0

    def test_duplicates_sum(self, labeled_universe):
        snapshot = snapshot_from_edges(
            [("alice", "bob", 1.0), ("bob", "alice", 2.0)],
            labeled_universe,
        )
        assert snapshot.weight("alice", "bob") == 3.0

    def test_duplicates_max(self, labeled_universe):
        snapshot = snapshot_from_edges(
            [("alice", "bob", 1.0), ("bob", "alice", 2.0)],
            labeled_universe, combine="max",
        )
        assert snapshot.weight("alice", "bob") == 2.0

    def test_self_loop_dropped(self, labeled_universe):
        snapshot = snapshot_from_edges(
            [("alice", "alice", 5.0)], labeled_universe
        )
        assert snapshot.num_edges == 0

    def test_unknown_node_raises(self, labeled_universe):
        with pytest.raises(GraphConstructionError):
            snapshot_from_edges([("alice", "zed", 1.0)], labeled_universe)

    def test_negative_weight_raises(self, labeled_universe):
        with pytest.raises(GraphConstructionError):
            snapshot_from_edges([("alice", "bob", -1.0)], labeled_universe)

    def test_bad_combine_raises(self, labeled_universe):
        with pytest.raises(GraphConstructionError):
            snapshot_from_edges([], labeled_universe, combine="min")

    def test_empty_edges_ok(self, labeled_universe):
        snapshot = snapshot_from_edges([], labeled_universe)
        assert snapshot.num_edges == 0


class TestGaussianSimilarityGraph:
    def test_close_points_strong_edge(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        snapshot = gaussian_similarity_graph(points)
        assert snapshot.weight(0, 1) > snapshot.weight(0, 2)

    def test_weights_match_formula(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        snapshot = gaussian_similarity_graph(points)
        assert snapshot.weight(0, 1) == pytest.approx(np.exp(-5.0))

    def test_scale(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        snapshot = gaussian_similarity_graph(points, scale=5.0)
        assert snapshot.weight(0, 1) == pytest.approx(np.exp(-1.0))

    def test_rejects_1d(self):
        with pytest.raises(GraphConstructionError):
            gaussian_similarity_graph(np.array([1.0, 2.0]))


class TestKnnGraph:
    def test_neighbor_count_lower_bound(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal(30)
        snapshot = knn_graph(features, k=3, bandwidth=1.0)
        degrees = (snapshot.adjacency > 0).sum(axis=1)
        assert np.all(np.asarray(degrees).ravel() >= 3)

    def test_value_space_connects_distant_similars(self):
        # nodes 0 and 3 share a value; 1, 2 differ
        features = np.array([1.0, 5.0, 9.0, 1.01])
        snapshot = knn_graph(features, k=1, bandwidth=1.0)
        assert snapshot.weight(0, 3) > 0.9

    def test_kernel_weight_formula(self):
        features = np.array([0.0, 2.0, 100.0])
        snapshot = knn_graph(features, k=1, bandwidth=2.0)
        assert snapshot.weight(0, 1) == pytest.approx(np.exp(-4.0 / 8.0))

    def test_k_too_large_raises(self):
        with pytest.raises(GraphConstructionError):
            knn_graph(np.arange(4.0), k=4, bandwidth=1.0)

    def test_2d_features(self):
        features = np.array([[0.0, 0.0], [0.0, 0.1], [9.0, 9.0]])
        snapshot = knn_graph(features, k=1, bandwidth=1.0)
        assert snapshot.weight(0, 1) > snapshot.weight(0, 2)


class TestNetworkxBridge:
    def test_round_trip(self):
        networkx = pytest.importorskip("networkx")
        graph = networkx.Graph()
        graph.add_edge("a", "b", weight=2.5)
        graph.add_edge("b", "c")  # default weight 1
        snapshot = snapshot_from_networkx(graph)
        assert snapshot.weight("a", "b") == 2.5
        assert snapshot.weight("b", "c") == 1.0


class TestSnapshotFromDense:
    def test_with_universe(self, labeled_universe):
        matrix = np.zeros((4, 4))
        matrix[0, 1] = matrix[1, 0] = 1.5
        snapshot = snapshot_from_dense(matrix, labeled_universe, time=7)
        assert snapshot.weight("alice", "bob") == 1.5
        assert snapshot.time == 7
