"""Whole-graph distance measures (paper Section 2.4.2).

The paper surveys four existing graph distances — maximum common
subgraph, graph edit distance, modality distance, spectral distance —
and rejects them for *localization* because none decomposes into a sum
of per-edge terms (condition (2)), leaving only intractable
combinatorial search. They remain useful for *event detection*
(scoring whole transitions), so this module implements standard
weighted-graph variants of each, plus helpers that turn any of them
into a transition-score time series.

Implementations follow the cited lines of work in spirit:

* ``mcs_distance`` — Bunke–Shearer distance via the (weighted)
  maximum common *edge* subgraph: shared edge mass over the larger
  graph's mass (for graphs over one fixed node universe the common
  subgraph is induced by the shared support, no search needed);
* ``edit_distance`` — weighted graph edit distance with unit-per-
  weight edit costs: total |ΔA| mass over the union support;
* ``modality_distance`` — distance between the graphs' stationary
  random-walk distributions (the "modality" vectors of Bunke et al.);
* ``spectral_distance`` — l2 distance between Laplacian spectra
  (Jovanović–Stanić).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..exceptions import EvaluationError
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import GraphSnapshot
from ..linalg.laplacian import dense_laplacian


def mcs_distance(g_t: GraphSnapshot, g_t1: GraphSnapshot) -> float:
    """Bunke–Shearer maximum-common-subgraph distance, weighted.

    ``1 - |mcs(G, H)| / max(|G|, |H|)`` with graph size measured as
    total edge weight and the common subgraph carrying
    ``min(A_t, A_t1)`` per edge. 0 for identical graphs, 1 for
    disjoint supports.
    """
    g_t.require_same_universe(g_t1)
    common = g_t.adjacency.minimum(g_t1.adjacency).sum()
    larger = max(g_t.adjacency.sum(), g_t1.adjacency.sum())
    if larger <= 0:
        return 0.0
    return float(1.0 - common / larger)


def edit_distance(g_t: GraphSnapshot, g_t1: GraphSnapshot) -> float:
    """Weighted graph edit distance: total |ΔA| edit mass.

    With unit cost per unit of weight inserted/deleted, the optimal
    edit script on a fixed node universe is exactly the entry-wise
    difference (each undirected edge counted once).
    """
    g_t.require_same_universe(g_t1)
    difference = g_t1.adjacency - g_t.adjacency
    return float(abs(difference).sum() / 2.0)


def modality_distance(g_t: GraphSnapshot, g_t1: GraphSnapshot) -> float:
    """Distance between stationary random-walk distributions.

    The stationary distribution of the natural random walk on a
    weighted graph is degree/volume; the modality distance is the l1
    distance between the two graphs' distributions — a cheap proxy for
    Bunke et al.'s Perron-vector comparison that is exact for
    undirected graphs.
    """
    g_t.require_same_universe(g_t1)
    return float(np.abs(
        _stationary(g_t) - _stationary(g_t1)
    ).sum())


def _stationary(snapshot: GraphSnapshot) -> np.ndarray:
    volume = snapshot.volume()
    if volume <= 0:
        return np.zeros(snapshot.num_nodes)
    return snapshot.degrees() / volume


def spectral_distance(g_t: GraphSnapshot, g_t1: GraphSnapshot) -> float:
    """l2 distance between sorted Laplacian spectra (Jovanović–Stanić).

    Dense eigendecompositions — intended for event detection on small
    and medium graphs.
    """
    g_t.require_same_universe(g_t1)
    spectrum_t = np.linalg.eigvalsh(dense_laplacian(g_t.adjacency))
    spectrum_t1 = np.linalg.eigvalsh(dense_laplacian(g_t1.adjacency))
    return float(np.linalg.norm(spectrum_t1 - spectrum_t))


#: Registry: name -> callable(g_t, g_t1) -> float.
GRAPH_DISTANCES: dict[str, Callable[[GraphSnapshot, GraphSnapshot],
                                    float]] = {
    "mcs": mcs_distance,
    "edit": edit_distance,
    "modality": modality_distance,
    "spectral": spectral_distance,
}


def transition_distance_series(graph: DynamicGraph,
                               distance: str = "spectral") -> np.ndarray:
    """Per-transition distance series for event detection.

    Args:
        graph: dynamic graph with >= 2 snapshots.
        distance: a :data:`GRAPH_DISTANCES` registry name.

    Returns:
        Length ``T - 1`` array of transition distances.
    """
    try:
        measure = GRAPH_DISTANCES[distance]
    except KeyError:
        known = ", ".join(sorted(GRAPH_DISTANCES))
        raise EvaluationError(
            f"unknown graph distance {distance!r}; known: {known}"
        ) from None
    if len(graph) < 2:
        raise EvaluationError("need at least two snapshots")
    return np.array([
        measure(g_t, g_t1) for g_t, g_t1 in graph.transitions()
    ])


def flag_event_transitions(series: np.ndarray,
                           z_threshold: float = 2.0) -> np.ndarray:
    """Flag transitions whose distance z-score exceeds a threshold.

    A simple robust rule (median/MAD z-scores) sufficient to compare
    event-detection behaviour across distance measures.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise EvaluationError("empty distance series")
    median = np.median(series)
    mad = np.median(np.abs(series - median))
    scale = 1.4826 * mad if mad > 0 else (np.std(series) or 1.0)
    z_scores = (series - median) / scale
    return z_scores > z_threshold
