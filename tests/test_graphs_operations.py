"""Unit tests for graph operations (components, diffs, Dijkstra, CLC)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphConstructionError
from repro.graphs import (
    GraphSnapshot,
    adjacency_difference,
    closeness_centrality,
    connected_components,
    is_connected,
    single_source_distances,
    subgraph,
    union_support,
)


class TestConnectedComponents:
    def test_connected(self, path_graph):
        count, labels = connected_components(path_graph.adjacency)
        assert count == 1
        assert set(labels) == {0}

    def test_disconnected(self, disconnected_graph):
        count, labels = connected_components(disconnected_graph.adjacency)
        assert count == 2
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_isolated_nodes(self):
        snapshot = GraphSnapshot(np.zeros((3, 3)))
        count, _ = connected_components(snapshot.adjacency)
        assert count == 3

    def test_is_connected(self, path_graph, disconnected_graph):
        assert is_connected(path_graph)
        assert not is_connected(disconnected_graph)

    def test_stored_zero_is_an_edge(self):
        adjacency = sp.csr_matrix(
            (np.zeros(2), np.array([1, 0]), np.array([0, 1, 2, 2])),
            shape=(3, 3),
        )
        assert adjacency.nnz == 2
        count, labels = connected_components(adjacency)
        assert count == 2
        np.testing.assert_array_equal(labels, [0, 0, 1])


# --- Component oracle: a plain breadth-first search -------------------


def _reference_components(adjacency):
    """Breadth-first component labels, numbered in the order of each
    component's lowest node; every stored entry is an edge."""
    matrix = adjacency.tocsr()
    n = matrix.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    count = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        labels[start] = count
        frontier = [start]
        while frontier:
            next_frontier = []
            for node in frontier:
                row = slice(matrix.indptr[node], matrix.indptr[node + 1])
                for neighbor in matrix.indices[row]:
                    if labels[neighbor] == -1:
                        labels[neighbor] = count
                        next_frontier.append(neighbor)
            frontier = next_frontier
        count += 1
    return count, labels


@st.composite
def _component_graphs(draw):
    """Symmetric CSR graphs of up to 40 nodes split over up to six
    interleaved groups with no edge between groups, so several
    components and isolated nodes appear; about 30% of the edges are
    stored with weight 0.0."""
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = rng.integers(0, draw(st.integers(1, 6)), size=n)
    density = draw(st.floats(0.0, 0.4))
    upper = [(i, j) for i in range(n) for j in range(i)
             if groups[i] == groups[j] and rng.random() < density]
    weights = np.where(rng.random(len(upper)) < 0.3, 0.0,
                       rng.uniform(0.1, 2.0, len(upper)))
    rows = [i for i, j in upper] + [j for i, j in upper]
    cols = [j for i, j in upper] + [i for i, j in upper]
    return sp.csr_matrix((np.concatenate([weights, weights]),
                          (rows, cols)), shape=(n, n))


class TestComponentOracle:
    @settings(max_examples=150, deadline=None)
    @given(adjacency=_component_graphs())
    def test_matches_reference_bfs(self, adjacency):
        count, labels = connected_components(adjacency)
        expected_count, expected = _reference_components(adjacency)
        assert count == expected_count
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, expected)


class TestAdjacencyDifference:
    def test_union_of_supports(self, path_graph):
        changed = np.zeros((4, 4))
        changed[0, 1] = changed[1, 0] = 1.0  # unchanged edge
        changed[2, 3] = changed[3, 2] = 5.0  # new edge
        other = GraphSnapshot(changed, path_graph.universe)
        diff = adjacency_difference(path_graph, other)
        assert diff[1, 2] == 1.0  # deleted edge keeps its magnitude
        assert diff[2, 3] == 4.0
        assert diff[0, 1] == 0.0

    def test_zero_for_identical(self, path_graph):
        diff = adjacency_difference(path_graph, path_graph)
        assert diff.nnz == 0


class TestUnionSupport:
    def test_covers_both(self, path_graph):
        changed = np.zeros((4, 4))
        changed[0, 3] = changed[3, 0] = 1.0
        other = GraphSnapshot(changed, path_graph.universe)
        rows, cols = union_support(path_graph, other)
        pairs = set(zip(rows.tolist(), cols.tolist()))
        assert pairs == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_strictly_upper(self, small_dynamic_graph):
        rows, cols = union_support(small_dynamic_graph[0],
                                   small_dynamic_graph[1])
        assert np.all(rows < cols)


class TestSubgraph:
    def test_induced(self, triangle_graph):
        induced = subgraph(triangle_graph, [0, 2])
        assert induced.num_nodes == 2
        assert induced.weight(0, 2) == 2.0

    def test_empty_selection_raises(self, triangle_graph):
        with pytest.raises(GraphConstructionError):
            subgraph(triangle_graph, [])


class TestDijkstra:
    def test_path_costs_inverse_weights(self, path_graph):
        distances = single_source_distances(path_graph.adjacency, 0)
        assert distances.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_weighted(self):
        adjacency = np.array([
            [0.0, 2.0, 0.0],
            [2.0, 0.0, 4.0],
            [0.0, 4.0, 0.0],
        ])
        snapshot = GraphSnapshot(adjacency)
        distances = single_source_distances(snapshot.adjacency, 0)
        assert distances[1] == pytest.approx(0.5)
        assert distances[2] == pytest.approx(0.75)

    def test_costs_direct(self, path_graph):
        distances = single_source_distances(
            path_graph.adjacency, 0, weights_are_similarities=False
        )
        assert distances[3] == pytest.approx(3.0)

    def test_unreachable_inf(self, disconnected_graph):
        distances = single_source_distances(disconnected_graph.adjacency, 0)
        assert np.isinf(distances[2])
        assert np.isinf(distances[3])

    def test_bad_source_raises(self, path_graph):
        with pytest.raises(GraphConstructionError):
            single_source_distances(path_graph.adjacency, 9)

    def test_matches_scipy(self, random_connected_graph):
        from scipy.sparse.csgraph import dijkstra

        adjacency = random_connected_graph.adjacency
        costs = adjacency.copy()
        costs.data = 1.0 / costs.data
        expected = dijkstra(costs, directed=False, indices=0)
        actual = single_source_distances(adjacency, 0)
        np.testing.assert_allclose(actual, expected, rtol=1e-10)


class TestClosenessCentrality:
    def test_star_center_highest(self):
        star = np.zeros((5, 5))
        star[0, 1:] = star[1:, 0] = 1.0
        snapshot = GraphSnapshot(star)
        scores = closeness_centrality(snapshot)
        assert np.argmax(scores) == 0

    def test_matches_networkx(self, random_connected_graph):
        networkx = pytest.importorskip("networkx")
        adjacency = random_connected_graph.adjacency.toarray()
        graph = networkx.Graph()
        n = adjacency.shape[0]
        graph.add_nodes_from(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if adjacency[i, j] > 0:
                    graph.add_edge(i, j, cost=1.0 / adjacency[i, j])
        expected = networkx.closeness_centrality(graph, distance="cost")
        actual = closeness_centrality(random_connected_graph)
        for i in range(n):
            assert actual[i] == pytest.approx(expected[i], rel=1e-9)

    def test_isolated_nodes_zero(self):
        snapshot = GraphSnapshot(np.zeros((3, 3)))
        assert closeness_centrality(snapshot).tolist() == [0.0, 0.0, 0.0]

    def test_single_node(self):
        snapshot = GraphSnapshot(np.zeros((1, 1)))
        assert closeness_centrality(snapshot).tolist() == [0.0]
