"""CLC baseline: closeness-centrality change.

Section 4 of the paper adds a centrality-based comparator: the anomaly
score of node ``i`` for the transition ``t -> t+1`` is::

    score(i) = |cc_{t+1}(i) - cc_t(i)|

where ``cc`` is closeness centrality. Edge weights are similarities in
this library (larger = stronger tie), so shortest paths traverse costs
``1 / weight``.

Backends: ``"scipy"`` (C-speed Dijkstra from ``scipy.sparse.csgraph``,
default) and ``"python"`` (this library's own heap-based Dijkstra, the
reference implementation the scipy path is tested against).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DetectionError
from ..graphs.operations import closeness_centrality
from ..graphs.snapshot import GraphSnapshot
from ..core.detector import Detector
from ..core.results import TransitionScores


class ClcDetector(Detector):
    """Closeness-centrality-delta detector (the paper's CLC baseline).

    Args:
        backend: ``"scipy"`` (fast) or ``"python"`` (pure reference).
    """

    name = "CLC"

    def __init__(self, backend: str = "scipy"):
        if backend not in ("scipy", "python"):
            raise DetectionError(
                f"backend must be 'scipy' or 'python', got {backend!r}"
            )
        self._backend = backend

    def closeness(self, snapshot: GraphSnapshot) -> np.ndarray:
        """Closeness centrality of every node of ``snapshot``."""
        if self._backend == "python":
            return closeness_centrality(snapshot)
        return _scipy_closeness(snapshot)

    def score_transition(self, g_t: GraphSnapshot,
                         g_t1: GraphSnapshot) -> TransitionScores:
        g_t.require_same_universe(g_t1)
        change = np.abs(self.closeness(g_t1) - self.closeness(g_t))
        return TransitionScores(
            universe=g_t.universe,
            edge_rows=np.zeros(0, dtype=np.int64),
            edge_cols=np.zeros(0, dtype=np.int64),
            edge_scores=np.zeros(0),
            node_scores=change,
            detector=self.name,
        )


def _scipy_closeness(snapshot: GraphSnapshot) -> np.ndarray:
    """Wasserman–Faust closeness via scipy's C Dijkstra.

    Matches :func:`repro.graphs.operations.closeness_centrality`
    exactly (similarity weights inverted into traversal costs).
    """
    from scipy.sparse.csgraph import dijkstra

    n = snapshot.num_nodes
    if n == 1:
        return np.zeros(1)
    adjacency = snapshot.adjacency.tocsr()
    costs = adjacency.copy()
    if costs.nnz:
        costs.data = 1.0 / costs.data
    distances = dijkstra(costs, directed=False)
    reachable = np.isfinite(distances)
    counts = reachable.sum(axis=1)  # includes the source itself
    totals = np.where(reachable, distances, 0.0).sum(axis=1)
    scores = np.zeros(n)
    valid = (counts > 1) & (totals > 0)
    r = counts[valid].astype(np.float64)
    scores[valid] = ((r - 1.0) / (n - 1.0)) * ((r - 1.0) / totals[valid])
    return scores
