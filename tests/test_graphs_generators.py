"""Unit tests for random graph generators."""

import numpy as np
import pytest

from repro.exceptions import GraphConstructionError
from repro.graphs import (
    community_pair_graph,
    is_connected,
    perturb_weights,
    random_sparse_graph,
    random_symmetric_noise,
    stochastic_block_model,
)


class TestRandomSparseGraph:
    def test_edge_count_near_target(self):
        graph = random_sparse_graph(1000, mean_degree=4.0, seed=0)
        assert 1500 <= graph.num_edges <= 2500

    def test_connected_flag(self):
        graph = random_sparse_graph(200, mean_degree=1.0, seed=1,
                                    connected=True)
        assert is_connected(graph)

    def test_weight_range(self):
        graph = random_sparse_graph(100, seed=2, weight_low=2.0,
                                    weight_high=3.0)
        weights = graph.adjacency.data
        assert weights.min() >= 2.0
        assert weights.max() < 3.0

    def test_deterministic(self):
        a = random_sparse_graph(50, seed=3)
        b = random_sparse_graph(50, seed=3)
        assert (a.adjacency != b.adjacency).nnz == 0

    def test_bad_weight_range(self):
        with pytest.raises(GraphConstructionError):
            random_sparse_graph(10, weight_low=2.0, weight_high=1.0)

    def test_single_node(self):
        graph = random_sparse_graph(1, seed=0)
        assert graph.num_edges == 0


class TestStochasticBlockModel:
    def test_community_structure(self):
        graph = stochastic_block_model([40, 40], 0.5, 0.01, seed=0)
        adjacency = graph.adjacency.toarray()
        intra = adjacency[:40, :40]
        inter = adjacency[:40, 40:]
        assert (intra > 0).mean() > 5 * (inter > 0).mean()

    def test_weights(self):
        graph = stochastic_block_model([10, 10], 1.0, 1.0,
                                       weight_in=2.0, weight_out=0.5,
                                       seed=0)
        adjacency = graph.adjacency.toarray()
        assert adjacency[0, 1] == 2.0
        assert adjacency[0, 10] == 0.5

    def test_rejects_bad_sizes(self):
        with pytest.raises(GraphConstructionError):
            stochastic_block_model([0, 5], 0.5, 0.1)

    def test_community_pair_helper(self):
        graph = community_pair_graph(community_size=15, seed=4)
        assert graph.num_nodes == 30


class TestPerturbWeights:
    def test_support_unchanged(self):
        graph = community_pair_graph(community_size=15, seed=1)
        jittered = perturb_weights(graph, relative_noise=0.1, seed=2)
        a = (graph.adjacency > 0).toarray()
        b = (jittered.adjacency > 0).toarray()
        np.testing.assert_array_equal(a, b)

    def test_bounded_change(self):
        graph = community_pair_graph(community_size=15, seed=1)
        jittered = perturb_weights(graph, relative_noise=0.1, seed=2)
        ratio = jittered.adjacency.data / graph.adjacency.data
        assert ratio.min() >= 0.9 - 1e-12
        assert ratio.max() <= 1.1 + 1e-12

    def test_zero_noise_identity(self):
        graph = community_pair_graph(community_size=10, seed=1)
        same = perturb_weights(graph, relative_noise=0.0, seed=3)
        assert abs(graph.adjacency - same.adjacency).max() < 1e-12


class TestRandomSymmetricNoise:
    def test_symmetric(self):
        noise = random_symmetric_noise(50, density=0.05, seed=0)
        assert abs(noise - noise.T).max() == 0.0

    def test_zero_diagonal(self):
        noise = random_symmetric_noise(50, density=0.2, seed=1)
        assert np.all(noise.diagonal() == 0.0)

    def test_density_scaling(self):
        dense = random_symmetric_noise(200, density=0.05, seed=2)
        sparse = random_symmetric_noise(200, density=0.005, seed=2)
        assert dense.nnz > 3 * sparse.nnz

    def test_value_range(self):
        noise = random_symmetric_noise(100, density=0.05, low=0.5,
                                       high=0.7, seed=3)
        assert noise.data.min() >= 0.5
        assert noise.data.max() < 0.7

    def test_zero_density(self):
        noise = random_symmetric_noise(30, density=0.0, seed=4)
        assert noise.nnz == 0
