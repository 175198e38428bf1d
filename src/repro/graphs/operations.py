"""Graph operations: components, differences, subgraphs, shortest paths.

Everything here works on :class:`~repro.graphs.snapshot.GraphSnapshot`
objects or raw CSR matrices. Components are labelled by
``scipy.sparse.csgraph``, which the CLC baseline and
``linalg/distances.py`` also use for Dijkstra. The Dijkstra here is
written from scratch: it is the reference the CLC baseline's scipy
path is tested against.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from ..exceptions import GraphConstructionError
from .snapshot import GraphSnapshot, NodeLabel


def connected_components(adjacency: sp.spmatrix) -> tuple[int, np.ndarray]:
    """Label connected components.

    Args:
        adjacency: symmetric sparse adjacency matrix; every stored
            entry is an edge, an explicit 0.0 included.

    Returns:
        ``(count, labels)`` where ``labels[i]`` is the component id of
        node ``i`` in ``0 .. count-1``, components numbered in the
        order of their lowest node.
    """
    from scipy.sparse import csgraph

    count, labels = csgraph.connected_components(adjacency, directed=False)
    return count, labels.astype(np.int64)


def is_connected(snapshot: GraphSnapshot) -> bool:
    """True when the snapshot forms a single connected component."""
    count, _labels = connected_components(snapshot.adjacency)
    return count == 1


def adjacency_difference(g_t: GraphSnapshot,
                         g_t1: GraphSnapshot) -> sp.csr_matrix:
    """Absolute entry-wise adjacency change ``|A_{t+1} - A_t|``.

    The result's support is the union of both snapshots' supports (the
    paper's O(m) observation: only edges present in at least one of the
    two slices can have a non-zero change).
    """
    g_t.require_same_universe(g_t1)
    difference = (g_t1.adjacency - g_t.adjacency).tocsr()
    difference.data = np.abs(difference.data)
    difference.eliminate_zeros()
    return difference


def union_support(g_t: GraphSnapshot,
                  g_t1: GraphSnapshot) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangular union support of two snapshots.

    Returns:
        ``(rows, cols)`` index arrays with ``rows < cols`` covering each
        undirected edge present in either snapshot exactly once.
    """
    g_t.require_same_universe(g_t1)
    pattern = _support_pattern(g_t.adjacency) + _support_pattern(g_t1.adjacency)
    upper = sp.triu(pattern, k=1).tocoo()
    return upper.row.astype(np.int64), upper.col.astype(np.int64)


def _support_pattern(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Binary 0/1 pattern matrix with the same support as ``matrix``."""
    pattern = matrix.copy()
    pattern.data = np.ones_like(pattern.data)
    return pattern


def subgraph(snapshot: GraphSnapshot,
             labels: Sequence[NodeLabel]) -> GraphSnapshot:
    """Induced subgraph on ``labels`` with a fresh universe.

    Useful for inspecting the neighbourhood of a flagged actor (the
    paper's Figure 8b subgraph around the Kenneth Lay node).
    """
    if not labels:
        raise GraphConstructionError("subgraph needs at least one node")
    indices = snapshot.universe.indices_of(labels)
    matrix = snapshot.adjacency[indices][:, indices]
    from .snapshot import NodeUniverse  # local import avoids cycle at module load

    return GraphSnapshot(matrix, NodeUniverse(labels), snapshot.time)


def single_source_distances(adjacency: sp.csr_matrix,
                            source: int,
                            weights_are_similarities: bool = True) -> np.ndarray:
    """Dijkstra shortest-path distances from ``source``.

    Args:
        adjacency: symmetric CSR matrix of non-negative edge weights.
        source: source node index.
        weights_are_similarities: when True (this library's convention:
            larger weight = stronger tie), traversal cost of an edge is
            ``1 / weight``; when False, weights are used as costs
            directly.

    Returns:
        Length-n float array; unreachable nodes get ``np.inf``.
    """
    n = adjacency.shape[0]
    if not 0 <= source < n:
        raise GraphConstructionError(
            f"source index {source} outside graph of {n} nodes"
        )
    indptr, indices, data = (
        adjacency.indptr, adjacency.indices, adjacency.data,
    )
    distances = np.full(n, np.inf)
    distances[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        dist, node = heapq.heappop(heap)
        if dist > distances[node]:
            continue  # stale entry
        for offset in range(indptr[node], indptr[node + 1]):
            neighbor = indices[offset]
            weight = data[offset]
            if weight <= 0:
                continue
            cost = 1.0 / weight if weights_are_similarities else weight
            candidate = dist + cost
            if candidate < distances[neighbor]:
                distances[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return distances


def closeness_centrality(snapshot: GraphSnapshot,
                         weights_are_similarities: bool = True) -> np.ndarray:
    """Closeness centrality of every node (Wasserman–Faust variant).

    For node ``i`` with ``r`` reachable nodes at total shortest-path
    distance ``s`` in a graph of ``n`` nodes::

        cc(i) = ((r - 1) / (n - 1)) * ((r - 1) / s)

    which matches ``networkx.closeness_centrality(..., wf_improved=True)``
    and handles disconnected graphs gracefully (isolated nodes get 0).
    This is the substrate of the paper's CLC baseline.
    """
    n = snapshot.num_nodes
    adjacency = snapshot.adjacency
    scores = np.zeros(n)
    if n == 1:
        return scores
    for i in range(n):
        distances = single_source_distances(
            adjacency, i, weights_are_similarities
        )
        reachable = np.isfinite(distances)
        r = int(reachable.sum())  # includes the source itself
        if r <= 1:
            continue
        total = float(distances[reachable].sum())
        if total <= 0:
            continue
        scores[i] = ((r - 1) / (n - 1)) * ((r - 1) / total)
    return scores
