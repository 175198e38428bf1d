"""Builders that construct graph snapshots from raw data.

The paper constructs graphs three ways, all covered here:

* explicit weighted edge lists (Enron/DBLP-style interaction counts) —
  :func:`snapshot_from_edges`;
* dense all-pairs similarity from point clouds, ``A(i,j) = exp(-d(i,j))``
  (the Gaussian-mixture synthetic benchmark, Section 4.1) —
  :func:`gaussian_similarity_graph`;
* k-nearest-neighbour graphs in a feature space with Gaussian-kernel
  edge weights (the precipitation networks, Section 4.2.3) —
  :func:`knn_graph`.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_float, check_positive_int
from ..exceptions import GraphConstructionError
from .snapshot import GraphSnapshot, NodeLabel, NodeUniverse

Edge = tuple[NodeLabel, NodeLabel, float]


def universe_from_edges(
    edge_lists: Iterable[Iterable[Edge]],
) -> NodeUniverse:
    """Build the union node universe over several edge lists.

    Labels are ordered by first appearance, scanning edge lists in
    order; use this before :func:`snapshot_from_edges` when ingesting a
    temporal edge stream so every snapshot shares one universe.
    """
    seen: dict[NodeLabel, None] = {}
    for edges in edge_lists:
        for u, v, _weight in edges:
            seen.setdefault(u, None)
            seen.setdefault(v, None)
    if not seen:
        raise GraphConstructionError("edge lists reference no nodes")
    return NodeUniverse(seen)


def snapshot_from_edges(edges: Iterable[Edge],
                        universe: NodeUniverse,
                        time: Any = None,
                        combine: str = "sum") -> GraphSnapshot:
    """Build a snapshot from an undirected weighted edge list.

    Args:
        edges: ``(u, v, weight)`` triples; ``(u, v)`` and ``(v, u)``
            refer to the same undirected edge. Self-loops are dropped.
        universe: node universe; every endpoint must belong to it.
        time: optional time label for the snapshot.
        combine: how to merge duplicate entries for one edge — ``"sum"``
            (interaction counts, the default) or ``"max"``.

    Raises:
        GraphConstructionError: on unknown endpoints, negative weights,
            or an unknown ``combine`` mode.
    """
    if combine not in ("sum", "max"):
        raise GraphConstructionError(
            f"combine must be 'sum' or 'max', got {combine!r}"
        )
    n = len(universe)
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for u, v, weight in edges:
        if u not in universe or v not in universe:
            raise GraphConstructionError(
                f"edge ({u!r}, {v!r}) references a node outside the universe"
            )
        if weight < 0:
            raise GraphConstructionError(
                f"edge ({u!r}, {v!r}) has negative weight {weight}"
            )
        i = universe.index_of(u)
        j = universe.index_of(v)
        if i == j:
            continue
        rows.extend((i, j))
        cols.extend((j, i))
        data.extend((float(weight), float(weight)))
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    if combine == "sum":
        matrix = matrix.tocsr()  # duplicate COO entries sum on conversion
    else:
        matrix = _coo_max(matrix, n)
    return GraphSnapshot(matrix, universe, time)


def _coo_max(matrix: sp.coo_matrix, n: int) -> sp.csr_matrix:
    """Collapse duplicate COO entries by maximum instead of sum."""
    if matrix.nnz == 0:
        return sp.csr_matrix((n, n))
    order = np.lexsort((matrix.col, matrix.row))
    row = matrix.row[order]
    col = matrix.col[order]
    data = matrix.data[order]
    keys = row.astype(np.int64) * n + col
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    groups = np.split(data, boundaries)
    starts = np.concatenate(([0], boundaries))
    merged = np.array([group.max() for group in groups])
    return sp.csr_matrix(
        (merged, (row[starts], col[starts])), shape=(n, n)
    )


def snapshot_from_dense(matrix: Any,
                        universe: NodeUniverse | None = None,
                        time: Any = None) -> GraphSnapshot:
    """Build a snapshot from a dense symmetric weight matrix."""
    return GraphSnapshot(np.asarray(matrix, dtype=np.float64), universe, time)


def gaussian_similarity_graph(points: np.ndarray,
                              universe: NodeUniverse | None = None,
                              scale: float = 1.0,
                              time: Any = None) -> GraphSnapshot:
    """All-pairs similarity graph ``A(i,j) = exp(-||x_i - x_j|| / scale)``.

    This is the construction of the paper's Section 4.1 synthetic
    benchmark (with ``scale = 1``): every node pair is connected, with
    strong intra-cluster and weak inter-cluster weights.

    Args:
        points: ``(n, d)`` array of point coordinates.
        universe: node universe; defaults to ``0..n-1``.
        scale: length scale dividing the Euclidean distance.
        time: optional time label.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise GraphConstructionError(
            f"points must be a 2-D array, got shape {points.shape}"
        )
    scale = check_positive_float(scale, "scale")
    deltas = points[:, None, :] - points[None, :, :]
    distances = np.sqrt(np.sum(deltas * deltas, axis=-1))
    adjacency = np.exp(-distances / scale)
    np.fill_diagonal(adjacency, 0.0)
    return GraphSnapshot(adjacency, universe, time)


def knn_graph(features: np.ndarray,
              k: int,
              bandwidth: float,
              universe: NodeUniverse | None = None,
              time: Any = None) -> GraphSnapshot:
    """Symmetrised k-nearest-neighbour graph with Gaussian-kernel weights.

    Nodes ``i`` and ``j`` are connected when either is among the other's
    ``k`` nearest neighbours **in feature space** (the paper's
    precipitation graphs use 1-D precipitation values, so distant
    locations with similar rainfall become adjacent). Edge weight is
    ``exp(-||f_i - f_j||^2 / (2 * bandwidth^2))``.

    Args:
        features: ``(n,)`` or ``(n, d)`` feature array.
        k: neighbours per node (1 <= k < n).
        bandwidth: Gaussian kernel bandwidth sigma (> 0).
        universe: node universe; defaults to ``0..n-1``.
        time: optional time label.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    if features.ndim != 2:
        raise GraphConstructionError(
            f"features must be 1-D or 2-D, got shape {features.shape}"
        )
    n = features.shape[0]
    k = check_positive_int(k, "k")
    if k >= n:
        raise GraphConstructionError(
            f"k must be < number of nodes ({n}), got {k}"
        )
    bandwidth = check_positive_float(bandwidth, "bandwidth")

    from scipy.spatial import cKDTree

    tree = cKDTree(features)
    # k+1 because each point is its own nearest neighbour.
    distances, neighbors = tree.query(features, k=k + 1)
    rows = np.repeat(np.arange(n), k)
    cols = neighbors[:, 1:].ravel()
    gaps = distances[:, 1:].ravel()
    weights = np.exp(-(gaps * gaps) / (2.0 * bandwidth * bandwidth))

    directed = sp.coo_matrix((weights, (rows, cols)), shape=(n, n)).tocsr()
    adjacency = directed.maximum(directed.T)  # symmetrise by max
    return GraphSnapshot(adjacency, universe, time)


def snapshot_from_networkx(graph: Any,
                           universe: NodeUniverse | None = None,
                           weight_attr: str = "weight",
                           time: Any = None) -> GraphSnapshot:
    """Build a snapshot from a ``networkx`` undirected graph.

    Args:
        graph: a ``networkx.Graph``; edge weights read from
            ``weight_attr`` (missing attribute means weight 1.0).
        universe: node universe; defaults to the graph's node order.
        weight_attr: edge attribute holding the weight.
        time: optional time label.
    """
    if universe is None:
        universe = NodeUniverse(graph.nodes())
    edges = (
        (u, v, float(attrs.get(weight_attr, 1.0)))
        for u, v, attrs in graph.edges(data=True)
    )
    return snapshot_from_edges(edges, universe, time=time)
