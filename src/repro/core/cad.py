"""The CAD detector (Algorithm 1 of the paper).

Ties the pieces together: commute-time backend → ΔE/ΔN scores →
δ selection → discrete anomaly sets per transition.

Typical use::

    from repro import CadDetector

    detector = CadDetector(k=50, seed=7)
    report = detector.detect(dynamic_graph, anomalies_per_transition=5)
    for transition in report.anomalous_transitions():
        print(transition.time_to, transition.anomalous_nodes)
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DetectionError
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import GraphSnapshot
from .commute import CommuteTimeCalculator
from .detector import Detector
from .results import DetectionReport, TransitionResult, TransitionScores
from .scores import cad_edge_scores
from .thresholds import anomaly_sets_at, select_global_threshold


class CadDetector(Detector):
    """Commute-time based Anomaly Detection in dynamic graphs.

    Args:
        **options: the commute-time backend's configuration, forwarded
            unchanged to :class:`~repro.core.commute.CommuteTimeCalculator`
            (whose docstring documents each one): ``method``
            (``"exact"``, ``"approx"`` or ``"auto"``), ``k``, ``seed``,
            ``solver``, ``exact_limit``, ``tol``, ``seed_mode``,
            ``factor_cache``, ``cache_budget_mb`` and
            ``delta_budget``. The paper uses exact computation on
            Enron (n=151) and the k = 50 embedding elsewhere.
    """

    name = "CAD"

    def __init__(self, **options):
        self._calculator = CommuteTimeCalculator(**options)

    @property
    def calculator(self) -> CommuteTimeCalculator:
        """The commute-time backend (shared across transitions)."""
        return self._calculator

    def score_transition(self, g_t: GraphSnapshot,
                         g_t1: GraphSnapshot) -> TransitionScores:
        """Raw ΔE/ΔN scores for one transition (δ-independent)."""
        return cad_edge_scores(g_t, g_t1, self._calculator)

    def detect(self, graph: DynamicGraph,
               anomalies_per_transition: int | None = None,
               delta: float | None = None) -> DetectionReport:
        """Run Algorithm 1 over a sequence and return discrete results.

        Exactly one of ``anomalies_per_transition`` (the paper's ``l``,
        from which a global δ is derived) or an explicit ``delta``
        must be given.

        Args:
            graph: dynamic graph with at least two snapshots.
            anomalies_per_transition: average node-anomaly budget per
                transition; δ is selected so the sequence-wide total is
                ``l * (T - 1)`` (Section 4.2).
            delta: explicit dissimilarity level, bypassing selection.

        Returns:
            :class:`DetectionReport` with per-transition edge sets
            ``E_t`` and node sets ``V_t``.
        """
        if (anomalies_per_transition is None) == (delta is None):
            raise DetectionError(
                "specify exactly one of anomalies_per_transition or delta"
            )
        scored = self.score_sequence(graph)
        if delta is None:
            delta = select_global_threshold(scored, anomalies_per_transition)
        health = self._calculator.health_report()
        return build_report(graph, scored, delta, self.name,
                            health=None if health.is_empty() else health)


def build_report(graph: DynamicGraph,
                 scored: list[TransitionScores],
                 delta: float,
                 detector_name: str,
                 health=None) -> DetectionReport:
    """Cut anomaly sets at level δ and assemble a report.

    Shared by CAD and any edge-scoring baseline (ADJ/COM), so the
    comparison benchmarks apply the identical thresholding policy to
    every method. ``health`` optionally attaches the run's resilience
    accounting (:class:`~repro.resilience.health.HealthReport`).
    """
    if len(scored) != graph.num_transitions:
        raise DetectionError(
            f"got {len(scored)} scored transitions for a graph with "
            f"{graph.num_transitions}"
        )
    label = graph.universe.label_of
    transitions = []
    for index, scores in enumerate(scored):
        edge_mask, node_indices, _node_scores = anomaly_sets_at(scores, delta)
        members = np.flatnonzero(edge_mask)
        order = members[np.argsort(-scores.edge_scores[members])]
        edges = [
            (label(int(scores.edge_rows[p])), label(int(scores.edge_cols[p])),
             float(scores.edge_scores[p]))
            for p in order
        ]
        transitions.append(TransitionResult(
            index=index,
            time_from=graph[index].time,
            time_to=graph[index + 1].time,
            anomalous_edges=edges,
            anomalous_nodes=[label(int(i)) for i in node_indices],
            scores=scores,
        ))
    return DetectionReport(
        detector=detector_name, threshold=float(delta),
        transitions=transitions, health=health,
    )
