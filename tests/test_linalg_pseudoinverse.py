"""Unit tests for exact commute times (paper eq. 3)."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings

from repro.exceptions import SolverError
from repro.graphs import random_sparse_graph
from repro.linalg import (
    commute_time_matrix,
    commute_times_for_pairs,
    dense_laplacian,
    effective_resistance_matrix,
    laplacian_pseudoinverse,
)

from .test_linalg_solvers import _hard_graphs


class TestPathGraphClosedForm:
    """On an unweighted path, c(i, j) = V_G * |i - j| / 1 since the
    effective resistance between i and j is exactly |i - j|."""

    def test_values(self, path_graph):
        commute = commute_time_matrix(path_graph.adjacency)
        volume = 6.0  # 3 edges, each contributing 2
        for i in range(4):
            for j in range(4):
                assert commute[i, j] == pytest.approx(
                    volume * abs(i - j), abs=1e-9
                )


class TestCommuteMatrixProperties:
    def test_symmetric_zero_diagonal(self, random_connected_graph):
        commute = commute_time_matrix(random_connected_graph.adjacency)
        np.testing.assert_allclose(commute, commute.T, atol=1e-8)
        np.testing.assert_allclose(np.diag(commute), 0.0, atol=1e-9)

    def test_non_negative(self, random_connected_graph):
        commute = commute_time_matrix(random_connected_graph.adjacency)
        assert commute.min() >= 0.0

    def test_triangle_inequality_sampled(self, random_connected_graph):
        commute = commute_time_matrix(random_connected_graph.adjacency)
        rng = np.random.default_rng(0)
        n = commute.shape[0]
        for _ in range(200):
            i, j, k = rng.integers(0, n, size=3)
            assert commute[i, j] <= commute[i, k] + commute[k, j] + 1e-6

    def test_adjacent_resistance_bounded_by_inverse_weight(self,
                                                           triangle_graph):
        resistance = effective_resistance_matrix(triangle_graph.adjacency)
        adjacency = triangle_graph.adjacency.toarray()
        for i in range(3):
            for j in range(3):
                if adjacency[i, j] > 0:
                    assert resistance[i, j] <= 1.0 / adjacency[i, j] + 1e-9

    def test_stronger_edge_shorter_commute(self):
        weak = np.array([[0.0, 1.0], [1.0, 0.0]])
        strong = np.array([[0.0, 4.0], [4.0, 0.0]])
        # resistance halves with weight 4; volume also scales, so use
        # effective resistance for the comparison
        r_weak = effective_resistance_matrix(weak)[0, 1]
        r_strong = effective_resistance_matrix(strong)[0, 1]
        assert r_strong == pytest.approx(r_weak / 4.0)


class TestDisconnected:
    def test_block_convention_finite(self, disconnected_graph):
        commute = commute_time_matrix(disconnected_graph.adjacency)
        assert np.isfinite(commute).all()
        # within-component commute times are classical
        volume = disconnected_graph.volume()
        assert commute[0, 1] == pytest.approx(volume * 1.0)

    def test_cross_component_block_algebra(self, disconnected_graph):
        """Cross-component values follow c = V_G * (l+_ii + l+_jj)."""
        commute = commute_time_matrix(disconnected_graph.adjacency)
        pseudo = laplacian_pseudoinverse(disconnected_graph.adjacency)
        volume = disconnected_graph.volume()
        expected = volume * (pseudo[0, 0] + pseudo[2, 2])
        assert commute[0, 2] == pytest.approx(expected)
        assert pseudo[0, 2] == pytest.approx(0.0, abs=1e-12)


class TestPairsApi:
    def test_matches_matrix(self, random_connected_graph):
        adjacency = random_connected_graph.adjacency
        commute = commute_time_matrix(adjacency)
        rows = np.array([0, 3, 10])
        cols = np.array([5, 7, 20])
        values = commute_times_for_pairs(adjacency, rows, cols)
        np.testing.assert_allclose(values, commute[rows, cols],
                                   atol=1e-8)

    def test_reuses_pseudoinverse(self, triangle_graph):
        pseudo = laplacian_pseudoinverse(triangle_graph.adjacency)
        values = commute_times_for_pairs(
            triangle_graph.adjacency,
            np.array([0]), np.array([1]),
            pseudoinverse=pseudo,
        )
        commute = commute_time_matrix(triangle_graph.adjacency, pseudo)
        assert values[0] == pytest.approx(commute[0, 1])

    def test_shape_mismatch_raises(self, triangle_graph):
        with pytest.raises(SolverError):
            commute_times_for_pairs(
                triangle_graph.adjacency, np.array([0, 1]), np.array([1])
            )


class TestPseudoinverse:
    def test_penrose_conditions(self, random_connected_graph):
        lap = dense_laplacian(random_connected_graph.adjacency)
        pseudo = laplacian_pseudoinverse(random_connected_graph.adjacency)
        np.testing.assert_allclose(lap @ pseudo @ lap, lap, atol=1e-6)
        np.testing.assert_allclose(pseudo @ lap @ pseudo, pseudo,
                                   atol=1e-8)

    def test_effective_resistance_needs_edges(self):
        with pytest.raises(SolverError):
            effective_resistance_matrix(np.zeros((3, 3)))


def _chain_components(adjacency, labels, weight=1.0):
    """CSR of the graph plus one edge of ``weight`` from each component
    to the next, stored even when ``weight`` is 0."""
    rows, cols = np.nonzero(adjacency)
    data = adjacency[rows, cols].tolist()
    rows, cols = rows.tolist(), cols.tolist()
    firsts = [np.flatnonzero(labels == c)[0] for c in np.unique(labels)]
    for i, j in zip(firsts[:-1], firsts[1:]):
        rows += [i, j]
        cols += [j, i]
        data += [weight, weight]
    return sp.csr_matrix((data, (rows, cols)), shape=adjacency.shape)


class TestPseudoinverseOracle:
    """``laplacian_pseudoinverse`` against naive references on graphs
    with isolated nodes, paths, even cycles, several components and
    weights from 1e-3 to 1e3."""

    @settings(max_examples=60, deadline=None)
    @given(graph=_hard_graphs())
    def test_matches_dense_pinv(self, graph):
        adjacency, _labels = graph
        # rcond as in the solver oracle: above rounding, below the
        # weak components' smallest nonzero eigenvalues.
        expected = np.linalg.pinv(dense_laplacian(adjacency),
                                  rcond=1e-11, hermitian=True)
        for matrix in (adjacency, sp.csr_matrix(adjacency)):
            np.testing.assert_allclose(
                laplacian_pseudoinverse(matrix), expected, rtol=0.0,
                atol=1e-7 * max(1.0, np.abs(expected).max()),
            )

    @settings(max_examples=60, deadline=None)
    @given(graph=_hard_graphs())
    def test_zero_across_components_and_on_isolated_rows(self, graph):
        """Also when stored zeros chain the components: a stored zero
        is no edge of the Laplacian."""
        adjacency, labels = graph
        sizes = np.bincount(labels)
        for matrix in (sp.csr_matrix(adjacency),
                       _chain_components(adjacency, labels, weight=0.0)):
            pseudo = laplacian_pseudoinverse(matrix)
            assert np.all(
                pseudo[labels[:, None] != labels[None, :]] == 0.0
            )
            assert np.all(pseudo[sizes[labels] == 1] == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(graph=_hard_graphs())
    def test_connected_graph_is_one_whole_pinvh(self, graph):
        """A connected graph takes exactly one ``pinvh`` of the whole
        dense Laplacian, byte for byte."""
        chained = _chain_components(*graph)
        for matrix in (chained.toarray(), chained):
            expected = scipy.linalg.pinvh(dense_laplacian(matrix))
            assert laplacian_pseudoinverse(matrix).tobytes() == \
                expected.tobytes()

    def test_keeps_a_component_fifteen_decades_weaker(self):
        """One whole-matrix ``pinvh`` cuts the 1e-9-weight component's
        eigenvalues as rounding noise and returns its block as zeros;
        per component, each block matches its own reference."""
        weak = random_sparse_graph(40, mean_degree=4.0, seed=1,
                                   connected=True).adjacency * 1e-9
        strong = random_sparse_graph(40, mean_degree=4.0, seed=2,
                                     connected=True).adjacency * 1e6
        pseudo = laplacian_pseudoinverse(sp.block_diag([weak, strong],
                                                       format="csr"))
        for block, rows in ((weak, slice(0, 40)), (strong, slice(40, 80))):
            # L+ = (L + aJ/n)^-1 - J/(an) on a connected block, with a
            # the mean degree so the shift matches the block's scale.
            lap = dense_laplacian(block)
            scale = np.trace(lap) / 40
            projector = np.full((40, 40), 1.0 / 40)
            expected = (np.linalg.inv(lap + scale * projector)
                        - projector / scale)
            np.testing.assert_allclose(pseudo[rows, rows], expected,
                                       rtol=1e-9,
                                       atol=1e-12 * np.abs(expected).max())
        assert np.all(pseudo[:40, 40:] == 0.0)
