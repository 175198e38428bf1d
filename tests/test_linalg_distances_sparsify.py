"""Unit tests for alternative distances and spectral sparsification."""

import numpy as np
import pytest

from repro.exceptions import EmbeddingError
from repro.graphs import random_sparse_graph
from repro.linalg import (
    DISTANCE_REGISTRY,
    commute_distance_matrix,
    commute_time_matrix,
    effective_resistances,
    forest_distance_matrix,
    laplacian_quadratic_form,
    resistance_distance_matrix,
    shortest_path_distance_matrix,
    sparsify,
)


class TestShortestPathDistance:
    def test_path_graph(self, path_graph):
        distances = shortest_path_distance_matrix(path_graph.adjacency)
        assert distances[0, 3] == pytest.approx(3.0)
        assert distances[0, 0] == 0.0

    def test_symmetric(self, random_connected_graph):
        distances = shortest_path_distance_matrix(
            random_connected_graph.adjacency
        )
        np.testing.assert_allclose(distances, distances.T)

    def test_unreachable_finite_sentinel(self, disconnected_graph):
        distances = shortest_path_distance_matrix(
            disconnected_graph.adjacency
        )
        assert np.isfinite(distances).all()
        assert distances[0, 2] > distances[0, 1]

    def test_direct_cost_mode(self, path_graph):
        distances = shortest_path_distance_matrix(
            path_graph.adjacency, weights_are_similarities=False
        )
        assert distances[0, 3] == pytest.approx(3.0)


class TestForestDistance:
    def test_metric_properties(self, random_connected_graph):
        distances = forest_distance_matrix(
            random_connected_graph.adjacency
        )
        np.testing.assert_allclose(distances, distances.T, atol=1e-10)
        assert distances.min() >= 0.0
        np.testing.assert_allclose(np.diag(distances), 0.0, atol=1e-12)

    def test_disconnected_finite(self, disconnected_graph):
        distances = forest_distance_matrix(disconnected_graph.adjacency)
        assert np.isfinite(distances).all()

    def test_alpha_limits(self, random_connected_graph):
        """Large alpha approaches resistance ordering."""
        adjacency = random_connected_graph.adjacency
        forest = forest_distance_matrix(adjacency, alpha=1000.0)
        resistance = resistance_distance_matrix(adjacency)
        iu = np.triu_indices(adjacency.shape[0], k=1)
        correlation = np.corrcoef(forest[iu], resistance[iu])[0, 1]
        assert correlation > 0.99

    def test_rejects_bad_alpha(self, path_graph):
        with pytest.raises(ValueError):
            forest_distance_matrix(path_graph.adjacency, alpha=0.0)


class TestRegistry:
    def test_commute_entry_matches_commute_matrix(self,
                                                  random_connected_graph):
        adjacency = random_connected_graph.adjacency
        np.testing.assert_allclose(
            commute_distance_matrix(adjacency),
            commute_time_matrix(adjacency),
            atol=1e-7,
        )

    def test_all_entries_callable(self, path_graph):
        for name, function in DISTANCE_REGISTRY.items():
            matrix = function(path_graph.adjacency)
            assert matrix.shape == (4, 4), name
            assert np.isfinite(matrix).all(), name


class TestEffectiveResistances:
    def test_exact_matches_commute(self, random_connected_graph):
        adjacency = random_connected_graph.adjacency
        rows, cols, weights, resistances = effective_resistances(
            adjacency, exact=True
        )
        commute = commute_time_matrix(adjacency)
        volume = random_connected_graph.volume()
        np.testing.assert_allclose(
            resistances, commute[rows, cols] / volume, atol=1e-9
        )
        assert weights.min() > 0

    def test_approx_close(self, random_connected_graph):
        adjacency = random_connected_graph.adjacency
        _r1, _c1, _w, exact = effective_resistances(adjacency, exact=True)
        _r2, _c2, _w2, approx = effective_resistances(
            adjacency, k=512, seed=0
        )
        relative = np.abs(approx - exact) / exact
        assert np.median(relative) < 0.15

    def test_edgeless_rejected(self):
        with pytest.raises(EmbeddingError):
            effective_resistances(np.zeros((3, 3)))


class TestSparsify:
    def test_quadratic_form_preserved(self):
        graph = random_sparse_graph(120, mean_degree=12.0, seed=5,
                                    connected=True)
        sparse = sparsify(graph, num_samples=3000, k=128, seed=0)
        rng = np.random.default_rng(1)
        errors = []
        for _ in range(10):
            x = rng.standard_normal(120)
            original = laplacian_quadratic_form(graph.adjacency, x)
            approximate = laplacian_quadratic_form(sparse.adjacency, x)
            errors.append(abs(approximate - original) / original)
        assert np.median(errors) < 0.35

    def test_reduces_edges_on_dense_input(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((80, 2))
        from repro.graphs import gaussian_similarity_graph

        dense = gaussian_similarity_graph(points)
        sparse = sparsify(dense, num_samples=400, k=64, seed=3)
        assert sparse.num_edges < dense.num_edges / 3

    def test_universe_and_time_preserved(self, random_connected_graph):
        timed = random_connected_graph.with_time("jan")
        sparse = sparsify(timed, num_samples=300, seed=4)
        assert sparse.universe == timed.universe
        assert sparse.time == "jan"

    def test_deterministic(self, random_connected_graph):
        a = sparsify(random_connected_graph, num_samples=200, seed=7)
        b = sparsify(random_connected_graph, num_samples=200, seed=7)
        assert abs(a.adjacency - b.adjacency).max() == 0.0
