"""Unit tests for the approximate commute-time embedding."""

import numpy as np
import pytest

from repro.exceptions import EmbeddingError
from repro.linalg import (
    CommuteTimeEmbedding,
    commute_time_matrix,
    suggest_embedding_dimension,
)
from repro.linalg import embedding as embedding_module


class TestEmbeddingAccuracy:
    def test_high_k_small_error(self, random_connected_graph):
        adjacency = random_connected_graph.adjacency
        exact = commute_time_matrix(adjacency)
        embedding = CommuteTimeEmbedding(adjacency, k=400, seed=0)
        approx = embedding.commute_time_matrix()
        iu = np.triu_indices(adjacency.shape[0], k=1)
        relative = np.abs(approx[iu] - exact[iu]) / exact[iu]
        assert np.median(relative) < 0.15

    def test_error_decreases_with_k(self, random_connected_graph):
        adjacency = random_connected_graph.adjacency
        exact = commute_time_matrix(adjacency)
        iu = np.triu_indices(adjacency.shape[0], k=1)

        def median_error(k: int) -> float:
            approx = CommuteTimeEmbedding(
                adjacency, k=k, seed=1
            ).commute_time_matrix()
            return float(np.median(np.abs(approx[iu] - exact[iu])
                                   / exact[iu]))

        assert median_error(256) < median_error(8)

    @pytest.mark.parametrize("solver", ["cg", "direct"])
    def test_solver_backends_agree(self, random_connected_graph, solver):
        adjacency = random_connected_graph.adjacency
        embedding = CommuteTimeEmbedding(
            adjacency, k=64, seed=3, solver=solver
        )
        exact = commute_time_matrix(adjacency)
        approx = embedding.commute_time_matrix()
        iu = np.triu_indices(adjacency.shape[0], k=1)
        relative = np.abs(approx[iu] - exact[iu]) / exact[iu]
        assert np.median(relative) < 0.35


class TestEmbeddingApi:
    def test_points_shape(self, random_connected_graph):
        embedding = CommuteTimeEmbedding(
            random_connected_graph.adjacency, k=17, seed=0
        )
        assert embedding.points.shape == (
            random_connected_graph.num_nodes, 17,
        )
        assert embedding.k == 17

    def test_pair_query_matches_matrix(self, random_connected_graph):
        embedding = CommuteTimeEmbedding(
            random_connected_graph.adjacency, k=32, seed=0
        )
        matrix = embedding.commute_time_matrix()
        rows = np.array([0, 5])
        cols = np.array([9, 12])
        np.testing.assert_allclose(
            embedding.commute_times(rows, cols),
            matrix[rows, cols], atol=1e-8,
        )

    def test_deterministic_with_seed(self, random_connected_graph):
        a = CommuteTimeEmbedding(random_connected_graph.adjacency,
                                 k=16, seed=5).points
        b = CommuteTimeEmbedding(random_connected_graph.adjacency,
                                 k=16, seed=5).points
        np.testing.assert_array_equal(a, b)

    def test_volume_property(self, random_connected_graph):
        embedding = CommuteTimeEmbedding(
            random_connected_graph.adjacency, k=16, seed=0
        )
        assert embedding.volume == pytest.approx(
            random_connected_graph.volume()
        )

    def test_rejects_edgeless(self):
        with pytest.raises(EmbeddingError):
            CommuteTimeEmbedding(np.zeros((4, 4)), k=8)

    def test_chunked_pair_query_is_bit_for_bit(self,
                                                random_connected_graph,
                                                monkeypatch):
        embedding = CommuteTimeEmbedding(
            random_connected_graph.adjacency, k=16, seed=0
        )
        rng = np.random.default_rng(3)
        n = random_connected_graph.num_nodes
        rows, cols = rng.integers(0, n, 500), rng.integers(0, n, 500)
        whole = embedding.commute_times(rows, cols)
        gaps = embedding.points[rows] - embedding.points[cols]
        np.testing.assert_array_equal(
            whole, np.einsum("ij,ij->i", gaps, gaps)
        )
        monkeypatch.setattr(embedding_module, "_PAIR_CHUNK", 7)
        np.testing.assert_array_equal(
            embedding.commute_times(rows, cols), whole
        )

    def test_pair_shape_mismatch(self, random_connected_graph):
        embedding = CommuteTimeEmbedding(
            random_connected_graph.adjacency, k=8, seed=0
        )
        with pytest.raises(EmbeddingError):
            embedding.commute_times(np.array([0, 1]), np.array([1]))


class TestDisconnectedEmbedding:
    def test_matches_block_convention(self, disconnected_graph):
        adjacency = disconnected_graph.adjacency
        exact = commute_time_matrix(adjacency)
        embedding = CommuteTimeEmbedding(adjacency, k=800, seed=2)
        approx = embedding.commute_time_matrix()
        # within-component distances approximate the classical commute
        assert approx[0, 1] == pytest.approx(exact[0, 1], rel=0.3)
        # cross-component values follow the same block convention
        assert approx[0, 2] == pytest.approx(exact[0, 2], rel=0.3)


class TestSuggestDimension:
    def test_grows_with_n(self):
        assert suggest_embedding_dimension(10**6) >= \
            suggest_embedding_dimension(10**2)

    def test_bounds(self):
        assert 16 <= suggest_embedding_dimension(10) <= 200
        assert suggest_embedding_dimension(10**9, epsilon=0.1) == 200

    def test_rejects_bad_epsilon(self):
        with pytest.raises(EmbeddingError):
            suggest_embedding_dimension(100, epsilon=0.0)
