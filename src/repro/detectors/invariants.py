"""Graph invariants: weak global statistics and their change detector.

Park, Priebe & Youssef (arXiv:1210.8429) detect anomalies in a time
series of graphs by monitoring several *individually weak* graph
invariants and fusing them; this module provides the invariant vector
itself — usable directly as an evaluation feature source — plus a
per-transition :class:`InvariantDetector` that flags a transition when
any invariant's change is large relative to the changes seen so far.

Invariants (:data:`INVARIANT_NAMES`):

* ``size`` — number of (undirected) edges;
* ``volume`` — total edge weight;
* ``max_degree`` — largest weighted degree;
* ``scan_stat`` — the scan statistic: the largest closed
  1-neighbourhood edge count ``max_i (deg(i) + triangles(i))``;
* ``triangles`` — total triangle count (unweighted pattern);
* ``spectral_gap`` — gap between the two largest adjacency
  eigenvalues.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..baselines.afm import _triangle_counts
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import GraphSnapshot
from ..observability import add_counter, trace
from ..core.detector import EVENT_SCORE_KEY, EventScoreDetector
from ..core.results import TransitionScores
from .lad import DENSE_SIGNATURE_LIMIT, MAD_SCALE, MIN_CALIBRATION_HISTORY

#: Invariant names, in the column order of :func:`graph_invariants`.
INVARIANT_NAMES = (
    "size",
    "volume",
    "max_degree",
    "scan_stat",
    "triangles",
    "spectral_gap",
)


def scan_statistics(snapshot: GraphSnapshot) -> np.ndarray:
    """Per-node scan statistic: edges in the closed 1-neighbourhood.

    ``scan(i) = deg(i) + triangles(i)`` on the unweighted pattern —
    every edge incident to ``i`` plus every edge among its neighbours.
    """
    pattern = snapshot.adjacency.copy()
    if pattern.nnz:
        pattern.data = np.ones_like(pattern.data)
    degree = np.asarray(pattern.sum(axis=1)).ravel()
    return degree + _triangle_counts(pattern)


def _spectral_gap(snapshot: GraphSnapshot) -> float:
    """Gap between the two largest adjacency eigenvalues (0 when the
    graph is too small or spectrally empty)."""
    n = snapshot.num_nodes
    if n < 2 or snapshot.num_edges == 0:
        return 0.0
    adjacency = snapshot.adjacency
    if n <= DENSE_SIGNATURE_LIMIT:
        spectrum = np.linalg.eigvalsh(adjacency.toarray())
        return float(spectrum[-1] - spectrum[-2])
    from scipy.sparse.linalg import eigsh

    try:
        values = eigsh(
            sp.csr_matrix(adjacency, dtype=np.float64), k=2,
            which="LA", v0=np.ones(n), return_eigenvectors=False,
        )
    except Exception:
        # Lanczos can fail on pathological spectra; the gap is a weak
        # invariant, so degrade to "no signal" rather than abort.
        return 0.0
    values = np.sort(values)
    return float(values[-1] - values[-2])


def graph_invariants(snapshot: GraphSnapshot) -> np.ndarray:
    """The snapshot's invariant vector (:data:`INVARIANT_NAMES` order)."""
    with trace("invariants.extract", nodes=snapshot.num_nodes):
        scan = scan_statistics(snapshot)
        degrees = snapshot.degrees()
        # Total triangles: per-node counts sum to 3x the triangle count.
        pattern = snapshot.adjacency.copy()
        if pattern.nnz:
            pattern.data = np.ones_like(pattern.data)
        triangles_total = float(_triangle_counts(pattern).sum() / 3.0)
        vector = np.array([
            float(snapshot.num_edges),
            float(snapshot.volume()),
            float(degrees.max(initial=0.0)),
            float(scan.max(initial=0.0)),
            triangles_total,
            _spectral_gap(snapshot),
        ])
    add_counter("invariant_extractions_total")
    return vector


def invariant_matrix(graph: DynamicGraph) -> np.ndarray:
    """Invariant vectors of every snapshot, shape ``(T, F)``.

    The evaluation-facing feature source: rows follow the snapshot
    order, columns follow :data:`INVARIANT_NAMES`.
    """
    return np.stack([graph_invariants(snapshot) for snapshot in graph])


class InvariantDetector(EventScoreDetector):
    """Per-transition change detector over the invariant vector.

    Each transition's invariant deltas are scaled against the robust
    spread (median/MAD) of the deltas seen so far; the event score is
    the largest scaled deviation over the invariants. Early in a
    sequence (no calibration history yet) deltas are scaled relative
    to the invariant's own magnitude, so the first transitions are
    comparable rather than arbitrarily huge. Node attribution uses the
    per-node scan-statistic change.

    Args:
        seed: accepted for registry uniformity; the detector is
            deterministic and ignores it.
    """

    name = "INVARIANT"

    def __init__(self, seed=None):
        del seed  # deterministic; accepted for registry uniformity
        self._history: list[np.ndarray] = []
        self._last_scan: np.ndarray | None = None

    def begin_sequence(self, graph: DynamicGraph) -> None:
        """Reset the invariant history."""
        self._history = []
        self._last_scan = None

    def score_transition(self, g_t: GraphSnapshot,
                         g_t1: GraphSnapshot) -> TransitionScores:
        g_t.require_same_universe(g_t1)
        if not self._history:
            self._history.append(graph_invariants(g_t))
            self._last_scan = scan_statistics(g_t)
        current = graph_invariants(g_t1)
        previous = self._history[-1]
        delta = current - previous
        past = np.stack(self._history)
        past_deltas = np.diff(past, axis=0)  # (m-1, F)
        scaled = np.array([
            self._scaled_deviation(delta[f], past_deltas[:, f],
                                   previous[f])
            for f in range(len(INVARIANT_NAMES))
        ])
        event = float(scaled.max(initial=0.0))
        scan = scan_statistics(g_t1)
        node_scores = np.abs(scan - self._last_scan)
        self._history.append(current)
        self._last_scan = scan
        return TransitionScores(
            universe=g_t.universe,
            edge_rows=np.zeros(0, dtype=np.int64),
            edge_cols=np.zeros(0, dtype=np.int64),
            edge_scores=np.zeros(0),
            node_scores=node_scores,
            detector=self.name,
            extras={
                EVENT_SCORE_KEY: np.array([event]),
                "invariants": current,
                "deltas": delta,
                "scaled_deltas": scaled,
            },
        )

    @staticmethod
    def _scaled_deviation(delta: float, past_deltas: np.ndarray,
                          level: float) -> float:
        """One invariant's |delta| over its robust historical spread.

        Falls back to a relative-change scale (the invariant's own
        magnitude, floored at 1) before enough history accumulated or
        when past deltas are all identical.
        """
        if past_deltas.size >= MIN_CALIBRATION_HISTORY:
            center = float(np.median(past_deltas))
            scale = MAD_SCALE * float(
                np.median(np.abs(past_deltas - center))
            )
            if scale <= 0:
                scale = float(past_deltas.std())
            if scale > 0:
                return abs(float(delta) - center) / scale
        return abs(float(delta)) / max(abs(float(level)), 1.0)

    def streaming_state(self) -> dict[str, np.ndarray]:
        """Invariant history + last scan vector as plain arrays."""
        if self._history:
            history = np.stack(self._history)
        else:
            history = np.zeros((0, len(INVARIANT_NAMES)))
        last_scan = (
            np.zeros(0) if self._last_scan is None
            else np.asarray(self._last_scan, dtype=np.float64)
        )
        return {"history": history, "last_scan": last_scan}

    def load_streaming_state(self,
                             state: dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`streaming_state`."""
        history = np.asarray(state["history"], dtype=np.float64)
        self._history = [row.copy() for row in history]
        last_scan = np.asarray(state["last_scan"], dtype=np.float64)
        self._last_scan = last_scan.copy() if last_scan.size else None
