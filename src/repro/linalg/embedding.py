"""Approximate commute-time embedding (Khoa & Chawla 2012).

The paper's scalability (Section 3.1) rests on computing commute times
approximately in ``O(k n)`` via a Johnson–Lindenstrauss sketch. The
identity behind it: with ``L = B^T W B`` (signed incidence
factorisation) the effective resistance is a Euclidean distance::

    r(i, j) = || W^{1/2} B L^+ (e_i - e_j) ||^2

Projecting the ``m``-dimensional rows with a random Rademacher matrix
``Q`` of ``k = O(log n / eps^2)`` rows preserves these distances within
``1 +- eps`` (JL lemma), so::

    Z = Q W^{1/2} B L^+          (k x n, via k Laplacian solves)
    r~(i, j) = || Z e_i - Z e_j ||^2
    c~(i, j) = V_G * r~(i, j)

The per-node embedding ``x_i = sqrt(V_G) * Z[:, i]`` therefore has
``||x_i - x_j||^2 ~= c(i, j)``.

``Q``'s column for edge ``(i, j)`` is a pure function of a run-level
root and the edge (:func:`edge_signs`), so every snapshot of a run,
in any process or order, is sketched with the same ``Q`` and the JL
errors of ``c_t`` and ``c_{t+1}`` largely cancel in CAD's ``|Δc|``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._validation import as_rng, check_positive_int
from ..exceptions import EmbeddingError
from ..observability import add_counter, trace
from .laplacian import graph_volume, incidence_factors
from .solvers import make_solver

_PROJECTION_CHUNK = 262_144  # edges per chunk when sketching Q W^{1/2} B
_PAIR_CHUNK = 65_536  # pairs per chunk of (pairs, k) gaps in commute_times


def projection_root(seed) -> int:
    """The JL projection's root for ``seed``: an integer seed itself,
    else one ``integers(0, 2**63)`` draw from ``as_rng(seed)`` (which
    rejects negative and non-integer seeds)."""
    rng = as_rng(seed)
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return int(rng.integers(0, 2 ** 63))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 of each element of a uint64 array (wraps mod 2**64)."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def edge_signs(root: int, endpoints: np.ndarray, k: int) -> np.ndarray:
    """``(m, k)`` Rademacher signs (``+-1.0``) of the ``(m, 2)`` edges
    ``(i, j)``, ``i < j``, under a non-negative projection root.

    Sign ``d`` of an edge is bit ``d % 64`` of word ``d // 64``, where
    word ``b`` is ``splitmix64(splitmix64(((i << 32) | j) ^ key) + b)``
    and ``key`` is the root's 64-bit ``SeedSequence`` state. Bits
    unpack from little-endian bytes: the same signs on every platform.
    """
    key = np.random.SeedSequence(root).generate_state(1, np.uint64)
    endpoints = np.asarray(endpoints).astype(np.uint64)
    edge = (endpoints[:, 0] << 32) | endpoints[:, 1]
    mixed = _splitmix64(edge ^ key)
    words = _splitmix64(
        mixed[:, None] + np.arange(-(-k // 64), dtype=np.uint64)
    )
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1,
                         bitorder="little")[:, :k]
    return bits * 2.0 - 1.0


def suggest_embedding_dimension(n: int, epsilon: float = 0.5) -> int:
    """JL-style heuristic ``k = O(log n / eps^2)`` for the sketch size.

    The paper observes (Figures 5 and text) that results are stable for
    any ``k > 10``; this helper gives a principled default, floored at
    16 and capped at 200.
    """
    n = check_positive_int(n, "n")
    if not 0 < epsilon <= 1:
        raise EmbeddingError(f"epsilon must lie in (0, 1], got {epsilon}")
    k = int(np.ceil(4.0 * np.log(max(n, 2)) / (epsilon * epsilon)))
    return int(np.clip(k, 16, 200))


class CommuteTimeEmbedding:
    """k-dimensional embedding whose squared distances are commute times.

    Args:
        adjacency: symmetric non-negative adjacency matrix (dense or
            sparse). Must contain at least one edge.
        k: embedding dimension (paper's ``k_RP``; > 10 recommended).
        seed: the JL projection's root (:func:`projection_root`): an
            integer is used as is; a Generator or ``None`` draws one.
        solver: ``"cg"``, ``"direct"``, ``"fallback"``, or a
            :class:`~repro.resilience.fallback.FallbackPolicy` for the
            Laplacian solve backend.
        tol: solver tolerance.
        health: optional
            :class:`~repro.resilience.health.HealthMonitor` recording
            which backend served each solve (fallback chains only).

    Attributes:
        points: ``(n, k)`` array; ``||points[i] - points[j]||^2``
            approximates the commute time ``c(i, j)``.
    """

    def __init__(self, adjacency: sp.spmatrix | np.ndarray,
                 k: int = 50,
                 seed=None,
                 solver="cg",
                 tol: float = 1e-8,
                 health=None):
        k = check_positive_int(k, "k")
        matrix = (
            adjacency.tocsr() if sp.issparse(adjacency)
            else sp.csr_matrix(np.asarray(adjacency, dtype=np.float64))
        )
        volume = graph_volume(matrix)
        if volume <= 0:
            raise EmbeddingError(
                "commute-time embedding needs a graph with at least one edge"
            )
        root = projection_root(seed)

        with trace("embedding.build", n=matrix.shape[0], k=k):
            add_counter("embeddings_built_total")
            incidence, weights = incidence_factors(matrix)
            sketch = _sketch_weighted_incidence(incidence, weights, k, root)

            laplacian_solver = make_solver(matrix, solver=solver, tol=tol,
                                           health=health)
            # Solve L z_d = y_d for each of the k sketch directions.
            points = laplacian_solver.solve_many(sketch.T)  # (n, k)
            del sketch

        points *= np.sqrt(volume)
        self._k = k
        self._volume = volume
        self._points = points
        self._component_labels = laplacian_solver.component_labels

    @property
    def k(self) -> int:
        """Embedding dimension."""
        return self._k

    @property
    def volume(self) -> float:
        """Graph volume ``V_G`` of the embedded snapshot."""
        return self._volume

    @property
    def points(self) -> np.ndarray:
        """``(n, k)`` embedding coordinates (do not mutate)."""
        return self._points

    def commute_times(self, rows: np.ndarray,
                      cols: np.ndarray) -> np.ndarray:
        """Approximate commute times for the given node pairs.

        Args:
            rows, cols: equal-length index arrays.

        Returns:
            Float array ``c~(rows[p], cols[p])`` per pair.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise EmbeddingError(
                f"rows and cols must align, got {rows.shape} vs {cols.shape}"
            )
        values = np.empty(rows.size)
        for start in range(0, rows.size, _PAIR_CHUNK):
            chunk = slice(start, start + _PAIR_CHUNK)
            gaps = self._points[rows[chunk]] - self._points[cols[chunk]]
            values[chunk] = np.einsum("ij,ij->i", gaps, gaps)
        return values

    def commute_time_matrix(self) -> np.ndarray:
        """Dense all-pairs approximate commute time matrix (small n)."""
        squared_norms = np.einsum("ij,ij->i", self._points, self._points)
        gram = self._points @ self._points.T
        commute = squared_norms[:, None] + squared_norms[None, :] - 2.0 * gram
        np.fill_diagonal(commute, 0.0)
        np.clip(commute, 0.0, None, out=commute)
        return commute


def estimate_embedding_error(adjacency: sp.spmatrix | np.ndarray,
                             k: int = 50,
                             num_samples: int = 50,
                             seed=None,
                             solver="cg") -> dict[str, float]:
    """Measure an embedding's commute-time error on sampled pairs.

    Compares the k-dimensional embedding against *exact* per-pair
    commute times obtained with one Laplacian solve per sampled pair
    (no O(n^3) pseudoinverse), so the diagnostic works at the same
    scale as the embedding itself. Use it to validate a choice of k
    on your own data (cf. the paper's Figure 5 robustness claim).

    Args:
        adjacency: symmetric non-negative adjacency matrix.
        k: embedding dimension to assess.
        num_samples: number of random node pairs to check.
        seed: randomness for both the embedding and the sample.
        solver: Laplacian solver backend.

    Returns:
        Dict with ``median_relative_error``, ``p95_relative_error``
        and ``max_relative_error`` over the sampled pairs.
    """
    num_samples = check_positive_int(num_samples, "num_samples")
    matrix = (
        adjacency.tocsr() if sp.issparse(adjacency)
        else sp.csr_matrix(np.asarray(adjacency, dtype=np.float64))
    )
    n = matrix.shape[0]
    if n < 2:
        raise EmbeddingError("need at least two nodes to sample pairs")
    rng = as_rng(seed)
    rows = rng.integers(0, n, size=4 * num_samples)
    cols = rng.integers(0, n, size=4 * num_samples)
    keep = rows != cols
    rows, cols = rows[keep][:num_samples], cols[keep][:num_samples]

    embedding = CommuteTimeEmbedding(matrix, k=k, seed=rng,
                                     solver=solver)
    approx = embedding.commute_times(rows, cols)
    exact_solver = make_solver(matrix, solver=solver)
    exact = exact_solver.commute_times_for_pairs(rows, cols)
    valid = exact > 0
    if not valid.any():
        raise EmbeddingError(
            "all sampled pairs have zero commute time; is the graph "
            "a single node per component?"
        )
    relative = np.abs(approx[valid] - exact[valid]) / exact[valid]
    return {
        "median_relative_error": float(np.median(relative)),
        "p95_relative_error": float(np.percentile(relative, 95)),
        "max_relative_error": float(relative.max()),
    }


def _sketch_weighted_incidence(incidence: sp.csr_matrix,
                               weights: np.ndarray,
                               k: int,
                               root: int) -> np.ndarray:
    """Compute ``Y = Q W^{1/2} B`` without materialising Q.

    ``Q`` is a ``(k, m)`` Rademacher matrix with entries ``+-1/sqrt(k)``,
    column ``e`` keyed by edge ``e``'s endpoints (:func:`edge_signs`).
    Each incidence row holds ``+1`` at ``i`` then ``-1`` at ``j > i``,
    so its column indices are the edge's endpoints in key order.
    Processing edges in chunks keeps peak memory at
    ``O(chunk * k)`` regardless of the edge count ``m``.

    Returns:
        Dense ``(k, n)`` sketch.
    """
    m, n = incidence.shape
    sketch_t = np.zeros((n, k))
    if m == 0:
        return sketch_t.T
    scale = 1.0 / np.sqrt(k)
    sqrt_weights = np.sqrt(weights)
    endpoints = incidence.indices.reshape(m, 2)
    for start in range(0, m, _PROJECTION_CHUNK):
        stop = min(start + _PROJECTION_CHUNK, m)
        signs = edge_signs(root, endpoints[start:stop], k)
        signs *= scale * sqrt_weights[start:stop, None]
        # (n x chunk sparse) @ (chunk x k dense) accumulates Y^T.
        sketch_t += incidence[start:stop].T @ signs
    return sketch_t.T
