"""Order statistics and the node-ranking AUC behind the metrics."""

from __future__ import annotations

import statistics

import numpy as np
from scipy.stats import rankdata

#: Samples that must lie beyond a reported tail percentile.
TAIL_MARGIN = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values, beyond: int = TAIL_MARGIN):
    """The highest percentile with at least ``beyond`` samples above it.

    With ``n`` samples in ascending order, the sample at 1-based rank
    ``n - beyond`` has exactly ``beyond`` samples after it; it sits at
    percentile ``100 * (n - beyond) / n``. Returns ``(percentile,
    value)``, or ``None`` when there are not more than ``beyond``
    samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return None
    return 100.0 * (n - beyond) / n, float(ordered[n - beyond - 1])


def samples_for_percentile(percentile: float,
                           beyond: int = TAIL_MARGIN) -> int:
    """Fewest samples for which :func:`tail_percentile` reaches
    ``percentile``."""
    n = beyond + 1
    while 100.0 * (n - beyond) / n < percentile:
        n += 1
    return n


def node_auc(scores, labels) -> float:
    """ROC AUC of ``scores`` against boolean ``labels`` (Mann–Whitney,
    ties at half weight)."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    positives = int(labels.sum())
    negatives = labels.size - positives
    if positives == 0 or negatives == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    ranks = rankdata(scores)
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - positives * (positives + 1) / 2.0) / (
        positives * negatives
    )
