"""Output gates: each workload's results checked against a reference.

Every gate is a pure function of the program's output and a reference
computed outside the timed region; it returns a list of failure
messages, empty when the output is correct.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from stats import node_auc

#: gm-dense: exact commute times may differ from the ``numpy.linalg.pinv``
#: reference by this share of the pair's commute time.
COMMUTE_RTOL = 1e-7
#: gm-dense: pairs sampled for the commute-time check.
COMMUTE_SAMPLE = 256
#: sparse-30k: pairs sampled for the embedding-error check.
EMBEDDING_SAMPLE = 10


def sample_pairs(graph, count: int, seed: int) -> tuple[np.ndarray,
                                                       np.ndarray]:
    """A fixed sample of node pairs ``(row < col)`` on which some
    snapshot of ``graph`` has an edge, so every pair is scored."""
    support = None
    for snapshot in graph:
        pattern = sp.triu(snapshot.adjacency, k=1) != 0
        support = pattern if support is None else support + pattern
    support = support.tocoo()
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(support.nnz, size=count, replace=False))
    return (support.row[chosen].astype(np.int64),
            support.col[chosen].astype(np.int64))


def reference_commute_times(adjacency, rows, cols) -> np.ndarray:
    """Commute times from a dense ``numpy.linalg.pinv`` of the
    Laplacian: ``c(i, j) = vol * (L+_ii + L+_jj - 2 L+_ij)``."""
    dense = np.asarray(adjacency.toarray() if hasattr(adjacency, "toarray")
                       else adjacency, dtype=np.float64)
    degrees = dense.sum(axis=1)
    pinv = np.linalg.pinv(np.diag(degrees) - dense, hermitian=True)
    volume = degrees.sum()
    return volume * (pinv[rows, rows] + pinv[cols, cols]
                     - 2.0 * pinv[rows, cols])


def pair_positions(scores, rows, cols) -> np.ndarray:
    """Positions of the given pairs in a transition's scored support."""
    n = len(scores.universe)
    keys = scores.edge_rows.astype(np.int64) * n + scores.edge_cols
    order = np.argsort(keys)
    wanted = rows.astype(np.int64) * n + cols
    found = np.searchsorted(keys, wanted, sorter=order)
    found = np.minimum(found, keys.size - 1)
    positions = order[found]
    if not np.array_equal(keys[positions], wanted):
        raise ValueError("sampled pairs are missing from the support")
    return positions


def check_commute_sample(scores, rows, cols, before, after) -> list[str]:
    """gm-dense: the report's commute-time change on sampled pairs
    matches ``|c_after - c_before|`` of the dense reference."""
    positions = pair_positions(scores, rows, cols)
    got = scores.extras["commute_change"][positions]
    want = np.abs(after - before)
    tolerance = COMMUTE_RTOL * (before + after)
    bad = np.flatnonzero(~(np.abs(got - want) <= tolerance))
    if bad.size:
        worst = int(bad[np.argmax(np.abs(got - want)[bad])])
        return [f"commute change off reference on {bad.size} of "
                f"{rows.size} pairs (pair {rows[worst]},{cols[worst]}: "
                f"{float(got[worst])!r} vs {float(want[worst])!r})"]
    return []


def check_repeatable(report, first) -> list[str]:
    """sparse-30k: scores are finite and identical to the first call."""
    failures = []
    for ours, theirs in zip(report.transitions, first.transitions):
        a, b = ours.scores, theirs.scores
        if not (np.isfinite(a.edge_scores).all()
                and np.isfinite(a.node_scores).all()):
            failures.append(f"transition {ours.index}: non-finite scores")
        if not (np.array_equal(a.edge_scores, b.edge_scores)
                and np.array_equal(a.node_scores, b.node_scores)):
            failures.append(f"transition {ours.index}: scores differ "
                            "from the first call")
    if report.threshold != first.threshold:
        failures.append(f"delta {report.threshold!r} differs from the "
                        f"first call's {first.threshold!r}")
    return failures


def embedding_epsilon(n: int, k: int) -> float:
    """The JL distortion for which the repo's own
    ``suggest_embedding_dimension`` rule picks ``k``:
    ``k = 4 ln n / eps^2``."""
    return math.sqrt(4.0 * math.log(n) / k)


def check_embedding_error(errors: dict, n: int, k: int) -> list[str]:
    epsilon = embedding_epsilon(n, k)
    worst = errors["max_relative_error"]
    if not worst <= epsilon:
        return [f"embedding max relative error {worst:.3f} exceeds "
                f"epsilon {epsilon:.3f} (n={n}, k={k})"]
    return []


def _same_scores(threshold, node_scores: list, reference,
                 what: str) -> list[str]:
    """The reference report's delta and bit-for-bit node scores."""
    failures = []
    if threshold != reference.threshold:
        failures.append(f"delta {threshold!r} differs from {what} "
                        f"{reference.threshold!r}")
    if len(node_scores) != len(reference.transitions):
        return failures + [f"{len(node_scores)} transitions, {what} has "
                           f"{len(reference.transitions)}"]
    for index, (ours, theirs) in enumerate(zip(node_scores,
                                               reference.transitions)):
        if not np.array_equal(np.asarray(ours, dtype=np.float64),
                              theirs.scores.node_scores):
            failures.append(f"transition {index}: node scores differ "
                            f"from {what}")
    return failures


def check_same_scores(report, reference, what: str) -> list[str]:
    """drift-cluster: a report equals ``reference`` bit for bit."""
    return _same_scores(report.threshold,
                        [t.scores.node_scores for t in report.transitions],
                        reference, what)


def check_session(document: dict, reference) -> list[str]:
    """enron-http: a finalized session report (``include_scores``)
    has the offline report's delta and bit-for-bit node scores."""
    return _same_scores(document.get("threshold"),
                        [entry.get("node_scores")
                         for entry in document.get("transitions", [])],
                        reference, "offline detect()")


def report_auc(node_scores: np.ndarray, labels: np.ndarray) -> float:
    """Node AUC pooled over the transitions that have ground truth."""
    rows = labels.any(axis=1)
    return node_auc(node_scores[rows], labels[rows])
