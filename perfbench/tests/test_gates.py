"""Each output gate passes on the program's real output and fails on a
perturbed copy of it."""

import copy

import numpy as np
import pytest

import repro
from repro.pipeline.serialize import report_to_dict

import gates
import inputs


def bump(value: float) -> float:
    return float(np.nextafter(value, np.inf))


@pytest.fixture(scope="module")
def gm():
    data = inputs.gaussian_mixture(1, n=80)
    report = repro.detect(data.graph, anomalies_per_transition=5, seed=1)
    rows, cols = gates.sample_pairs(data.graph, 40, seed=3)
    before = gates.reference_commute_times(data.graph[0].adjacency,
                                           rows, cols)
    after = gates.reference_commute_times(data.graph[1].adjacency,
                                          rows, cols)
    return report.transitions[0].scores, rows, cols, before, after


def test_commute_gate_passes_on_program_output(gm):
    assert gates.check_commute_sample(*gm) == []


def test_commute_gate_fails_on_perturbed_commute_times(gm):
    scores, rows, cols, before, after = gm
    perturbed = copy.deepcopy(scores)
    change = perturbed.extras["commute_change"]
    position = gates.pair_positions(perturbed, rows[:1], cols[:1])[0]
    change[position] += 1e-6 * (before[0] + after[0])
    failures = gates.check_commute_sample(perturbed, rows, cols, before,
                                          after)
    assert failures and "1 of 40 pairs" in failures[0]


@pytest.fixture(scope="module")
def sparse():
    data = inputs.sparse_transition(2, n=2000)
    report = repro.detect(data.graph, anomalies_per_transition=5, seed=2,
                          method="approx")
    again = repro.detect(data.graph, anomalies_per_transition=5, seed=2,
                         method="approx")
    return report, again


def test_repeatable_gate_passes_on_repeated_calls(sparse):
    report, again = sparse
    assert gates.check_repeatable(again, report) == []


def test_repeatable_gate_fails_on_changed_scores(sparse):
    report, again = sparse
    changed = copy.deepcopy(again)
    scores = changed.transitions[0].scores.node_scores
    scores[0] = bump(scores[0])
    assert gates.check_repeatable(changed, report)


def test_repeatable_gate_fails_on_non_finite_scores(sparse):
    report, again = sparse
    changed = copy.deepcopy(report)
    changed.transitions[0].scores.edge_scores[0] = np.nan
    failures = gates.check_repeatable(changed, changed)
    assert any("non-finite" in failure for failure in failures)


def test_embedding_gate():
    epsilon = gates.embedding_epsilon(30_000, 50)
    assert epsilon == pytest.approx(0.908, abs=1e-3)
    assert gates.check_embedding_error(
        {"max_relative_error": 0.48}, 30_000, 50) == []
    assert gates.check_embedding_error(
        {"max_relative_error": epsilon * 1.01}, 30_000, 50)


@pytest.fixture(scope="module")
def session():
    graph = inputs.enron_sessions(4, 1)[0].graph.subsequence(0, 10)
    offline = repro.detect(graph, anomalies_per_transition=5, seed=4)
    stream = repro.StreamingCadDetector(seed=4)
    for snapshot in graph:
        stream.push(snapshot)
    return report_to_dict(stream.finalize(), include_scores=True), offline


def test_session_gate_passes_on_streamed_report(session):
    document, offline = session
    assert gates.check_session(document, offline) == []


def test_session_gate_fails_on_one_ulp(session):
    document, offline = session
    changed = copy.deepcopy(document)
    scores = changed["transitions"][-1]["node_scores"]
    scores[3] = bump(scores[3])
    assert gates.check_session(changed, offline)
    changed = copy.deepcopy(document)
    changed["threshold"] = bump(changed["threshold"])
    assert gates.check_session(changed, offline)


def test_cluster_parity_gate():
    data = inputs.drift_stream(6, n=300, snapshots=4)
    serial = repro.CadDetector(seed=6, seed_mode="content",
                               method="approx").detect(
        data.graph, anomalies_per_transition=5)
    again = repro.CadDetector(seed=6, seed_mode="content",
                              method="approx").detect(
        data.graph, anomalies_per_transition=5)
    assert gates.check_same_scores(again, serial, "serial") == []
    changed = copy.deepcopy(again)
    scores = changed.transitions[1].scores.node_scores
    scores[7] = bump(scores[7])
    assert gates.check_same_scores(changed, serial, "serial")


def test_report_auc_uses_transitions_with_ground_truth():
    scores = np.array([[0.0, 0.0, 0.0], [3.0, 1.0, 2.0]])
    labels = np.array([[False, False, False], [True, False, False]])
    assert gates.report_auc(scores, labels) == 1.0
