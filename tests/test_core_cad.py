"""Unit tests for the CadDetector end-to-end behaviour."""

import pytest

from repro.core import CadDetector, build_report
from repro.exceptions import DetectionError
from repro.graphs import (
    DynamicGraph,
    GraphSnapshot,
    community_pair_graph,
    perturb_weights,
)


@pytest.fixture
def detector():
    return CadDetector(method="exact", seed=0)


class TestDetect:
    def test_localizes_injected_edge(self, small_dynamic_graph, detector):
        report = detector.detect(small_dynamic_graph,
                                 anomalies_per_transition=2)
        transition = report.transitions[0]
        assert transition.is_anomalous
        (u, v, _score) = transition.anomalous_edges[0]
        assert {u, v} == {0, 39}
        assert set(transition.anomalous_nodes[:2]) == {0, 39}

    def test_explicit_delta(self, small_dynamic_graph, detector):
        report = detector.detect(small_dynamic_graph, delta=1e-9)
        assert report.threshold == 1e-9
        assert report.transitions[0].is_anomalous

    def test_requires_exactly_one_policy(self, small_dynamic_graph,
                                         detector):
        with pytest.raises(DetectionError):
            detector.detect(small_dynamic_graph)
        with pytest.raises(DetectionError):
            detector.detect(small_dynamic_graph,
                            anomalies_per_transition=2, delta=1.0)

    def test_sequence_too_short(self, detector, path_graph):
        with pytest.raises(DetectionError):
            detector.detect(DynamicGraph([path_graph]),
                            anomalies_per_transition=1)

    def test_quiet_sequence_reports_little(self, detector):
        base = community_pair_graph(community_size=15, seed=0)
        calm = DynamicGraph([
            base,
            perturb_weights(base, 0.01, seed=1),
            perturb_weights(base, 0.01, seed=2),
        ])
        report = detector.detect(calm, anomalies_per_transition=1)
        # some transitions may report the budget, but nothing beyond a
        # handful of nodes can appear in this noise-only sequence
        assert report.total_anomalous_nodes() <= 6

    def test_multi_transition_budget(self, detector):
        base = community_pair_graph(community_size=15, p_in=0.6, seed=3)
        snapshots = [base]
        for t in range(3):
            snapshots.append(perturb_weights(snapshots[-1], 0.05,
                                             seed=10 + t))
        # strong injected edge at the final transition only
        matrix = snapshots[-1].adjacency.tolil()
        matrix[0, 29] = matrix[29, 0] = 4.0
        snapshots[-1] = GraphSnapshot(matrix.tocsr(), base.universe)
        report = detector.detect(DynamicGraph(snapshots),
                                 anomalies_per_transition=1)
        final = report.transitions[-1]
        assert final.is_anomalous
        top_edge = final.anomalous_edges[0]
        assert {top_edge[0], top_edge[1]} == {0, 29}

    def test_approx_backend_agrees_on_top_edge(self, small_dynamic_graph):
        exact = CadDetector(method="exact")
        approx = CadDetector(method="approx", k=128, seed=1)
        top_exact = exact.score_sequence(
            small_dynamic_graph
        )[0].top_edges(1)[0]
        top_approx = approx.score_sequence(
            small_dynamic_graph
        )[0].top_edges(1)[0]
        assert {top_exact[0], top_exact[1]} == {top_approx[0],
                                                top_approx[1]}


class TestBuildReport:
    def test_mismatched_lengths(self, small_dynamic_graph, detector):
        scored = detector.score_sequence(small_dynamic_graph)
        with pytest.raises(DetectionError):
            build_report(small_dynamic_graph, scored + scored, 1.0, "CAD")

    def test_edges_sorted_descending(self, small_dynamic_graph, detector):
        scored = detector.score_sequence(small_dynamic_graph)
        report = build_report(small_dynamic_graph, scored, 1e-6, "CAD")
        edges = report.transitions[0].anomalous_edges
        values = [score for _u, _v, score in edges]
        assert values == sorted(values, reverse=True)

    def test_time_labels_propagate(self, detector):
        base = community_pair_graph(community_size=10, seed=4)
        graph = DynamicGraph([
            base.with_time("jan"),
            perturb_weights(base, 0.05, seed=5).with_time("feb"),
        ])
        report = detector.detect(graph, anomalies_per_transition=1)
        assert report.transitions[0].time_from == "jan"
        assert report.transitions[0].time_to == "feb"
