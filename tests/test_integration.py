"""Integration tests: full pipelines across modules.

Each test exercises a realistic end-to-end path — simulate a dataset,
run detectors, evaluate against ground truth — at a scale small enough
for CI but large enough to be meaningful.
"""

import numpy as np
import pytest

from repro import (
    ActDetector,
    AdjDetector,
    CadDetector,
    ClcDetector,
    ComDetector,
    detect,
    toy_example,
)
from repro.datasets import (
    EnronLikeSimulator,
    generate_dblp_instance,
    generate_gaussian_mixture_instance,
    generate_scalability_instance,
)
from repro.evaluation import (
    auc_score,
    compare_detectors,
    evaluate_detector,
    node_ranking_scores,
    rank_of,
)
from repro.graphs import read_temporal_edge_csv, write_temporal_edge_csv


class TestToyEndToEnd:
    def test_cad_beats_act_on_responsible_nodes(self):
        """Figure 3's claim: CAD's normalized scores separate the six
        responsible nodes; ACT assigns significant mass elsewhere."""
        toy = toy_example()
        cad_scores = CadDetector(method="exact").score_sequence(
            toy.graph
        )[0]
        act_scores = ActDetector(window=1).score_sequence(toy.graph)[0]
        universe = toy.graph.universe
        truth = universe.indices_of(toy.anomalous_nodes)
        mask = np.zeros(17, dtype=bool)
        mask[truth] = True

        cad_norm = cad_scores.normalized_node_scores()
        act_norm = act_scores.normalized_node_scores()
        # CAD: every responsible node far above every other node
        assert cad_norm[mask].min() > 5 * cad_norm[~mask].max()
        # ACT: overall separation strictly worse than CAD's
        act_gap = act_norm[mask].min() - act_norm[~mask].max()
        cad_gap = cad_norm[mask].min() - cad_norm[~mask].max()
        assert cad_gap > act_gap


class TestSyntheticComparison:
    def test_auc_ordering_matches_paper(self):
        """Figure 6's shape: CAD >> ADJ ~ COM ~ ACT ~ CLC."""
        instances = []
        for seed in range(3):
            instance = generate_gaussian_mixture_instance(n=240,
                                                          seed=seed)
            instances.append((instance.graph, instance.node_labels))
        results = compare_detectors(
            [
                CadDetector(method="exact", seed=0),
                AdjDetector(),
                ComDetector(method="exact"),
                ActDetector(),
                ClcDetector(),
            ],
            instances,
        )
        cad = results["CAD"].mean_auc
        assert cad > 0.85
        for name in ("ADJ", "COM", "ACT", "CLC"):
            assert cad > results[name].mean_auc + 0.1, name


class TestApproxAucFloor:
    def test_k10_close_to_exact(self):
        """Figure 5 at k = 10: with one edge-keyed projection per run,
        the JL errors of consecutive snapshots cancel in |Δc|."""
        instances = []
        for seed in range(12):
            instance = generate_gaussian_mixture_instance(n=240,
                                                          seed=seed)
            instances.append((instance.graph, instance.node_labels))
        evaluation = evaluate_detector(
            CadDetector(method="approx", k=10, seed=1), instances
        )
        assert evaluation.mean_auc >= 0.96


class TestEnronEndToEnd:
    def test_key_player_localized(self):
        data = EnronLikeSimulator(seed=42).generate()
        detector = CadDetector(method="exact", seed=0)
        report = detector.detect(data.graph, anomalies_per_transition=5)
        hub_transition = report.transitions[31]
        assert hub_transition.is_anomalous
        assert data.key_player in hub_transition.anomalous_nodes[:3]
        # the key player carries the most anomalous edges
        counts: dict = {}
        for u, v, _ in hub_transition.anomalous_edges:
            counts[u] = counts.get(u, 0) + 1
            counts[v] = counts.get(v, 0) + 1
        top_actor = max(counts.items(), key=lambda item: item[1])[0]
        assert top_actor == data.key_player

    def test_most_turmoil_flagged_more_than_calm(self):
        data = EnronLikeSimulator(seed=42).generate()
        report = CadDetector(method="exact", seed=0).detect(
            data.graph, anomalies_per_transition=5
        )
        flagged = {t.index for t in report.anomalous_transitions()}
        turmoil_hits = len(flagged & set(data.turmoil_transitions))
        calm_hits = len(flagged & set(data.calm_transitions))
        assert turmoil_hits > calm_hits


class TestDblpEndToEnd:
    def test_cross_field_switch_top_ranked(self):
        data = generate_dblp_instance(seed=7, num_authors=300,
                                      num_fields=5)
        detector = CadDetector(method="exact", seed=0)
        scored = detector.score_sequence(data.graph)
        cross = next(e for e in data.events
                     if e.name == "cross_field_switch")
        scores = scored[cross.transition]
        index = data.graph.universe.index_of(cross.author)
        assert rank_of(index, scores.node_scores) <= 3

    def test_severity_ordering(self):
        data = generate_dblp_instance(seed=7, num_authors=300,
                                      num_fields=5)
        scored = CadDetector(method="exact", seed=0).score_sequence(
            data.graph
        )[0]
        universe = data.graph.universe
        cross = next(e for e in data.events
                     if e.name == "cross_field_switch")
        sub = next(e for e in data.events if e.name == "sub_field_switch")
        assert (
            scored.node_scores[universe.index_of(cross.author)]
            > scored.node_scores[universe.index_of(sub.author)]
        )


class TestIoRoundTripPipeline:
    def test_detect_after_csv_round_trip(self, tmp_path,
                                         small_dynamic_graph):
        path = tmp_path / "graph.csv"
        write_temporal_edge_csv(small_dynamic_graph, path)
        loaded = read_temporal_edge_csv(path)
        report = detect(loaded, detector="cad",
                        anomalies_per_transition=2, method="exact")
        edge = report.transitions[0].anomalous_edges[0]
        assert {edge[0], edge[1]} == {"0", "39"}  # labels stringified


class TestScalabilityWorkload:
    def test_instance_shape(self):
        instance = generate_scalability_instance(500, seed=0)
        assert instance.num_nodes == 500
        assert instance.graph.num_transitions == 1

    def test_cad_runs_at_scale(self):
        instance = generate_scalability_instance(3000, seed=1)
        detector = CadDetector(method="approx", k=16, seed=0)
        scores = detector.score_sequence(instance.graph)[0]
        assert scores.num_scored_edges > 0
        assert np.isfinite(scores.edge_scores).all()


class TestApproxExactConsistency:
    def test_rankings_correlate(self, small_dynamic_graph):
        exact = CadDetector(method="exact").score_sequence(
            small_dynamic_graph
        )[0]
        approx = CadDetector(method="approx", k=256,
                             seed=3).score_sequence(
            small_dynamic_graph
        )[0]
        exact_ranking = node_ranking_scores(exact)
        approx_ranking = node_ranking_scores(approx)
        labels = np.zeros(exact_ranking.size, dtype=bool)
        labels[[0, 39]] = True
        # both backends rank the injected endpoints perfectly
        assert auc_score(labels, exact_ranking) == pytest.approx(1.0)
        assert auc_score(labels, approx_ranking) == pytest.approx(1.0)
