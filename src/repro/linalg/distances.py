"""Alternative node-distance measures (paper Section 3.1).

The paper chooses commute time as ``d_t(.,.)`` but notes that "there
exist several other ways to determine distances between nodes in a
graph, including shortest path, alternative distance measures based on
random walks and others [Chebotarev & Shamis; Chen & Safro]". This
module implements the alternatives so the choice can be measured
rather than asserted (see ``bench_ablation_distance.py``):

* **shortest-path distance** — traversal cost ``1/w`` per edge, the
  non-robust comparison point (a single path decides the distance);
* **forest (regularised Laplacian) distance** — Chebotarev–Shamis
  relative forest accessibility turned into a distance:
  ``Q = (I + alpha * L)^{-1}`` is doubly-stochastic-like and PSD, and
  ``d(i, j) = Q_ii + Q_jj - 2 Q_ij`` is a squared-Euclidean metric in
  its feature space. Finite on disconnected graphs by construction;
* **resistance distance** — commute time without the volume factor
  (``c(i, j) / V_G``), useful when cross-snapshot volume drift should
  not rescale distances.

All three expose the same pairwise API as the commute backends, so
:class:`~repro.core.generic.GenericDistanceDetector` can swap them in.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_float
from ..exceptions import SolverError
from .laplacian import dense_laplacian, graph_volume
from .pseudoinverse import laplacian_pseudoinverse

#: Finite stand-in for unreachable shortest-path pairs: the largest
#: finite distance in the matrix times this factor.
_UNREACHABLE_FACTOR = 10.0


def shortest_path_distance_matrix(
    adjacency: sp.spmatrix | np.ndarray,
    weights_are_similarities: bool = True,
) -> np.ndarray:
    """All-pairs shortest-path distances.

    Unreachable pairs get a large finite sentinel (10x the largest
    finite distance) instead of ``inf`` so that downstream score
    arithmetic stays finite — mirroring the block-pseudoinverse
    convention of the commute backends.

    Args:
        adjacency: symmetric non-negative similarity matrix.
        weights_are_similarities: traverse at cost ``1/w`` (default)
            or use weights directly as costs.
    """
    from scipy.sparse.csgraph import dijkstra

    matrix = (
        adjacency.tocsr() if sp.issparse(adjacency)
        else sp.csr_matrix(np.asarray(adjacency, dtype=np.float64))
    )
    costs = matrix.copy()
    if weights_are_similarities and costs.nnz:
        costs.data = 1.0 / costs.data
    distances = dijkstra(costs, directed=False)
    finite = np.isfinite(distances)
    if not finite.all():
        peak = distances[finite].max() if finite.any() else 1.0
        distances[~finite] = _UNREACHABLE_FACTOR * max(peak, 1.0)
    np.fill_diagonal(distances, 0.0)
    return distances


def forest_distance_matrix(adjacency: sp.spmatrix | np.ndarray,
                           alpha: float = 1.0) -> np.ndarray:
    """Chebotarev–Shamis forest distance matrix.

    ``Q = (I + alpha L)^{-1}`` (always well-conditioned: eigenvalues in
    ``(0, 1]``), ``d(i, j) = Q_ii + Q_jj - 2 Q_ij``. Larger ``alpha``
    weights long forests more and approaches resistance-distance
    behaviour; small ``alpha`` localises the measure.

    Args:
        adjacency: symmetric non-negative adjacency matrix.
        alpha: regularisation strength (> 0).
    """
    import scipy.linalg

    alpha = check_positive_float(alpha, "alpha")
    lap = dense_laplacian(adjacency)
    n = lap.shape[0]
    if n == 0:
        raise SolverError("empty graph")
    q = scipy.linalg.inv(np.eye(n) + alpha * lap)
    diagonal = np.diag(q)
    distances = diagonal[:, None] + diagonal[None, :] - 2.0 * q
    distances = 0.5 * (distances + distances.T)
    np.fill_diagonal(distances, 0.0)
    np.clip(distances, 0.0, None, out=distances)
    return distances


def resistance_distance_matrix(
    adjacency: sp.spmatrix | np.ndarray,
) -> np.ndarray:
    """Effective resistance matrix ``r(i, j) = c(i, j) / V_G``.

    Identical structure information to commute time, but invariant to
    overall volume drift between snapshots (commute time rescales with
    ``V_G``; resistance does not).
    """
    pseudo = laplacian_pseudoinverse(adjacency)
    diagonal = np.diag(pseudo)
    distances = diagonal[:, None] + diagonal[None, :] - 2.0 * pseudo
    distances = 0.5 * (distances + distances.T)
    np.fill_diagonal(distances, 0.0)
    np.clip(distances, 0.0, None, out=distances)
    return distances


def commute_distance_matrix(
    adjacency: sp.spmatrix | np.ndarray,
) -> np.ndarray:
    """Commute time matrix (the paper's choice), for the registry."""
    volume = graph_volume(adjacency)
    return volume * resistance_distance_matrix(adjacency)


#: Distance registry used by the generic detector and the ablation
#: bench: name -> callable(adjacency) -> dense distance matrix.
DISTANCE_REGISTRY = {
    "commute": commute_distance_matrix,
    "resistance": resistance_distance_matrix,
    "shortest_path": shortest_path_distance_matrix,
    "forest": forest_distance_matrix,
}
