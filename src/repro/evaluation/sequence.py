"""Sequence-level evaluation: scoring detectors on event timelines.

The synthetic ROC machinery (:mod:`repro.evaluation.sweeps`) covers
single labelled transitions; timeline datasets (the Enron-like
simulator) carry ground truth *per transition* — which transitions are
events, and which actors are responsible at each. This module scores
a :class:`~repro.core.DetectionReport` against such a timeline.
"""

from __future__ import annotations

from collections.abc import Callable, Collection
from dataclasses import dataclass

from ..core.results import DetectionReport
from ..exceptions import EvaluationError
from .metrics import SetMetrics, set_metrics


@dataclass(frozen=True)
class TimelineEvaluation:
    """How a detection report matches a ground-truth timeline.

    Attributes:
        transition_metrics: precision/recall of the flagged-transition
            set against the ground-truth transition set.
        tolerant_precision: precision when flags inside the wider
            "acceptable" window also count as correct (mid-event flags
            are legitimate).
        actor_recall: fraction of ground-truth transitions where at
            least one responsible actor was named.
        actor_metrics: per ground-truth transition, set metrics of the
            reported actors against the responsible actors.
    """

    transition_metrics: SetMetrics
    tolerant_precision: float
    actor_recall: float
    actor_metrics: dict[int, SetMetrics]


def evaluate_timeline(report: DetectionReport,
                      truth_transitions: Collection[int],
                      actors_of: Callable[[int], set],
                      acceptable_transitions: Collection[int] | None = None,
                      ) -> TimelineEvaluation:
    """Score a report against a scripted timeline.

    Args:
        report: any detector's discrete output.
        truth_transitions: transition indices at which events start or
            end (the strict ground truth).
        actors_of: callable mapping a ground-truth transition to the
            set of responsible actor labels.
        acceptable_transitions: wider window (e.g. every transition
            overlapping an event's active span) inside which a flag is
            not counted as a false alarm; defaults to the strict set.

    Raises:
        EvaluationError: on an empty ground-truth set.
    """
    truth = set(truth_transitions)
    if not truth:
        raise EvaluationError("ground-truth transition set is empty")
    acceptable = (
        set(acceptable_transitions)
        if acceptable_transitions is not None else set(truth)
    )
    acceptable |= truth

    flagged = {t.index for t in report.anomalous_transitions()}
    transition_metrics = set_metrics(flagged, truth)
    inside = len(flagged & acceptable)
    tolerant_precision = inside / len(flagged) if flagged else 1.0

    actor_metrics: dict[int, SetMetrics] = {}
    named = 0
    for transition_index in sorted(truth):
        responsible = set(actors_of(transition_index))
        if not responsible:
            continue
        if transition_index < len(report.transitions):
            reported = set(
                report.transitions[transition_index].anomalous_nodes
            )
        else:
            reported = set()
        metrics = set_metrics(reported, responsible)
        actor_metrics[transition_index] = metrics
        if metrics.true_positives > 0:
            named += 1
    actor_recall = named / len(actor_metrics) if actor_metrics else 0.0

    return TimelineEvaluation(
        transition_metrics=transition_metrics,
        tolerant_precision=tolerant_precision,
        actor_recall=actor_recall,
        actor_metrics=actor_metrics,
    )


def summarize_timeline(evaluation: TimelineEvaluation) -> str:
    """One-paragraph textual summary of a timeline evaluation."""
    t = evaluation.transition_metrics
    lines = [
        f"transitions: precision {t.precision:.2f} recall {t.recall:.2f} "
        f"(tolerant precision {evaluation.tolerant_precision:.2f})",
        f"actors named at {evaluation.actor_recall:.0%} of ground-truth "
        "transitions",
    ]
    for index, metrics in sorted(evaluation.actor_metrics.items()):
        lines.append(
            f"  t={index}: {metrics.true_positives} of "
            f"{metrics.true_positives + metrics.false_negatives} "
            f"responsible actors named"
        )
    return "\n".join(lines)
