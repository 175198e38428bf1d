"""Unit tests for from-scratch eigensolvers."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.linalg import (
    fiedler_vector,
    laplacian_eigenmaps,
    principal_eigenvector,
    principal_left_singular_vector,
    top_eigenpairs,
)


def _random_symmetric(n=25, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    return (a + a.T) / 2.0


class TestPrincipalEigenvector:
    def test_matches_numpy(self):
        matrix = _random_symmetric(seed=1)
        ours = principal_eigenvector(matrix)
        values, vectors = np.linalg.eigh(matrix)
        theirs = vectors[:, -1]
        if theirs[np.argmax(np.abs(theirs))] < 0:
            theirs = -theirs
        np.testing.assert_allclose(np.abs(ours), np.abs(theirs),
                                   atol=1e-5)

    def test_unit_norm(self):
        vector = principal_eigenvector(_random_symmetric(seed=2))
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_nonnegative_for_connected_adjacency(self,
                                                 random_connected_graph):
        vector = principal_eigenvector(random_connected_graph.adjacency)
        assert vector.min() > -1e-8  # Perron-Frobenius

    def test_sparse_input(self, random_connected_graph):
        dense = principal_eigenvector(
            random_connected_graph.adjacency.toarray()
        )
        sparse = principal_eigenvector(random_connected_graph.adjacency)
        np.testing.assert_allclose(dense, sparse, atol=1e-6)

    def test_near_degenerate_converges(self):
        # Two identical disjoint cliques: exactly degenerate top pair.
        block = np.ones((5, 5)) - np.eye(5)
        matrix = np.zeros((10, 10))
        matrix[:5, :5] = block
        matrix[5:, 5:] = block
        vector = principal_eigenvector(matrix)
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_bipartite_spectrum_converges(self):
        # A weighted path is bipartite: eigenvalues come in +/- pairs,
        # so unshifted power iteration oscillates forever (regression:
        # ACT died with ConvergenceError on any bipartite snapshot).
        matrix = np.zeros((4, 4))
        for i, weight in zip(range(3), (1.0, 2.0, 1.2)):
            matrix[i, i + 1] = matrix[i + 1, i] = weight
        vector = principal_eigenvector(matrix)
        reference = np.linalg.eigh(matrix)[1][:, -1]
        reference *= np.sign(reference[np.argmax(np.abs(reference))])
        np.testing.assert_allclose(vector, reference, atol=1e-5)

    def test_empty_matrix_raises(self):
        with pytest.raises(SolverError):
            principal_eigenvector(np.zeros((0, 0)))


class TestTopEigenpairs:
    def test_matches_numpy(self):
        matrix = _random_symmetric(seed=3)
        values, vectors = top_eigenpairs(matrix, 3, seed=0)
        expected = np.linalg.eigvalsh(matrix)
        expected = expected[np.argsort(-np.abs(expected))][:3]
        np.testing.assert_allclose(np.abs(values), np.abs(expected),
                                   rtol=1e-5)
        # columns orthonormal
        gram = vectors.T @ vectors
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-6)

    def test_count_too_large(self):
        with pytest.raises(SolverError):
            top_eigenpairs(np.eye(3), 4)


class TestPrincipalLeftSingularVector:
    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((40, 3))
        ours = principal_left_singular_vector(matrix)
        u, _s, _vt = np.linalg.svd(matrix, full_matrices=False)
        theirs = u[:, 0]
        if theirs[np.argmax(np.abs(theirs))] < 0:
            theirs = -theirs
        np.testing.assert_allclose(ours, theirs, atol=1e-8)

    def test_single_column_normalises(self):
        column = np.array([[3.0], [4.0]])
        result = principal_left_singular_vector(column)
        np.testing.assert_allclose(result, [0.6, 0.8])

    def test_zero_matrix(self):
        assert principal_left_singular_vector(
            np.zeros((4, 2))
        ).tolist() == [0.0] * 4

    def test_empty_raises(self):
        with pytest.raises(SolverError):
            principal_left_singular_vector(np.zeros((0, 0)))


class TestLaplacianEigenmaps:
    def test_fiedler_sign_splits_communities(self):
        from repro.graphs import community_pair_graph

        graph = community_pair_graph(community_size=15, p_in=0.6,
                                     p_out=0.02, seed=9)
        fiedler = fiedler_vector(graph.adjacency)
        first = np.sign(fiedler[:15])
        second = np.sign(fiedler[15:])
        # all of one community on one side, all of the other opposite
        assert np.all(first == first[0])
        assert np.all(second == second[0])
        assert first[0] != second[0]

    def test_shape(self, random_connected_graph):
        coords = laplacian_eigenmaps(random_connected_graph.adjacency,
                                     dim=3)
        assert coords.shape == (random_connected_graph.num_nodes, 3)

    def test_orthogonal_to_constant(self, random_connected_graph):
        coords = laplacian_eigenmaps(random_connected_graph.adjacency,
                                     dim=2)
        sums = coords.sum(axis=0)
        np.testing.assert_allclose(sums, 0.0, atol=1e-8)

    def test_dim_too_large(self):
        with pytest.raises(SolverError):
            laplacian_eigenmaps(np.zeros((3, 3)), dim=3)
