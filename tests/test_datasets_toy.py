"""Tests for the 17-node toy example (Section 2.2, Tables 1-2)."""

import numpy as np
import pytest

from repro.core import CadDetector
from repro.datasets import toy_example


#: The exact backend's ΔE for the five Table 1 edges and ΔN for all 17
#: Table 2 nodes at full precision (``benchmarks/results/table1_*.txt``
#: and ``table2_*.txt`` round them to four digits). Nodes on no changed
#: edge score exactly 0.
GOLDEN_EDGE_SCORES = {
    ("b1", "r1"): 128.51183417621115,
    ("r7", "r8"): 149.57428571428383,
    ("b4", "b5"): 51.93067837823713,
    ("b1", "b3"): 0.49476523561909475,
    ("b2", "b7"): 0.19607852952737861,
}
GOLDEN_NODE_SCORES = {
    "b1": 129.00659941183025, "b2": 0.19607852952737861,
    "b3": 0.49476523561909475, "b4": 51.93067837823713,
    "b5": 51.93067837823713, "b6": 0.0, "b7": 0.19607852952737861,
    "b8": 0.0, "r1": 128.51183417621115, "r2": 0.0, "r3": 0.0,
    "r4": 0.0, "r5": 0.0, "r6": 0.0, "r7": 149.57428571428383,
    "r8": 149.57428571428383, "r9": 0.0,
}


@pytest.fixture(scope="module")
def toy():
    return toy_example()


@pytest.fixture(scope="module")
def toy_scores(toy):
    return CadDetector(method="exact").score_sequence(toy.graph)[0]


class TestStructure:
    def test_seventeen_nodes(self, toy):
        assert toy.graph.num_nodes == 17
        assert len(toy.graph) == 2

    def test_labels(self, toy):
        labels = set(toy.graph.universe.labels)
        assert "b1" in labels and "r9" in labels

    def test_scenarios_applied(self, toy):
        g_t, g_t1 = toy.graph[0], toy.graph[1]
        for name, (u, v, before, after) in toy.scenarios.items():
            assert g_t.weight(u, v) == pytest.approx(before), name
            assert g_t1.weight(u, v) == pytest.approx(after), name

    def test_ground_truth_nodes(self, toy):
        assert set(toy.anomalous_nodes) == {
            "b1", "r1", "b4", "b5", "r7", "r8",
        }

    def test_anomalous_and_benign_disjoint(self, toy):
        assert not set(toy.anomalous_edges) & set(toy.benign_edges)


class TestTable1Reproduction:
    """The paper's Table 1: anomalous edge scores dominate benign."""

    def test_top_three_edges_are_the_anomalies(self, toy, toy_scores):
        top = {frozenset((u, v)) for u, v, _ in toy_scores.top_edges(3)}
        expected = {frozenset(edge) for edge in toy.anomalous_edges}
        assert top == expected

    def test_separation_factor(self, toy, toy_scores):
        matrix = toy_scores.edge_score_matrix()
        uni = toy.graph.universe
        anomalous = min(
            matrix[uni.index_of(u), uni.index_of(v)]
            for u, v in toy.anomalous_edges
        )
        benign = max(
            matrix[uni.index_of(u), uni.index_of(v)]
            for u, v in toy.benign_edges
        )
        # Table 1 shows ~45x separation; require at least 20x here.
        assert anomalous > 20 * benign

    def test_benign_edges_nonzero_but_small(self, toy, toy_scores):
        matrix = toy_scores.edge_score_matrix()
        uni = toy.graph.universe
        for u, v in toy.benign_edges:
            value = matrix[uni.index_of(u), uni.index_of(v)]
            assert 0 < value


class TestTable2Reproduction:
    """The paper's Table 2: node scores flag exactly the 6 actors."""

    def test_top_six_nodes(self, toy, toy_scores):
        top = {label for label, _ in toy_scores.top_nodes(6)}
        assert top == set(toy.anomalous_nodes)

    def test_uninvolved_nodes_score_zero(self, toy, toy_scores):
        uni = toy.graph.universe
        for label in ("b6", "b8", "r2", "r3", "r4", "r5", "r6", "r9"):
            assert toy_scores.node_scores[uni.index_of(label)] < 1.0

    def test_score_gap(self, toy, toy_scores):
        values = sorted(toy_scores.node_scores, reverse=True)
        assert values[5] > 10 * values[6]


class TestGoldenValues:
    """Tables 1 and 2 pinned within rtol 1e-9: an exact backend built
    another way (about 1e-14 apart) passes, a formula change fails."""

    def test_table1_edge_scores(self, toy, toy_scores):
        matrix = toy_scores.edge_score_matrix()
        uni = toy.graph.universe
        actual = [matrix[uni.index_of(u), uni.index_of(v)]
                  for u, v in GOLDEN_EDGE_SCORES]
        np.testing.assert_allclose(actual, list(GOLDEN_EDGE_SCORES.values()),
                                   rtol=1e-9, atol=0.0)

    def test_table2_node_scores(self, toy, toy_scores):
        uni = toy.graph.universe
        assert sorted(GOLDEN_NODE_SCORES) == sorted(uni.labels)
        actual = [toy_scores.node_scores[uni.index_of(label)]
                  for label in GOLDEN_NODE_SCORES]
        np.testing.assert_allclose(actual, list(GOLDEN_NODE_SCORES.values()),
                                   rtol=1e-9, atol=0.0)


class TestDetectOnToy:
    def test_algorithm1_recovers_ground_truth(self, toy):
        report = CadDetector(method="exact").detect(
            toy.graph, anomalies_per_transition=6
        )
        transition = report.transitions[0]
        assert set(transition.anomalous_nodes) == set(toy.anomalous_nodes)
        found_edges = {
            frozenset((u, v)) for u, v, _ in transition.anomalous_edges
        }
        assert found_edges == {
            frozenset(edge) for edge in toy.anomalous_edges
        }
