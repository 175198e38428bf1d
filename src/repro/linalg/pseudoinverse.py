"""Exact commute times via the Laplacian Moore–Penrose pseudoinverse.

This is the paper's equation (3)::

    c(i, j) = V_G * (l+_ii + l+_jj - 2 l+_ij)

computed from the dense pseudoinverse ``L^+``. Exact computation is
O(n^3) and intended for graphs up to a few thousand nodes (the paper
itself uses it for the 151-node Enron graphs); larger graphs should use
:mod:`repro.linalg.embedding`.

``L^+`` is built per connected component: a connected graph takes one
``scipy.linalg.pinvh`` of its dense Laplacian, and a disconnected one
inverts each component's own Laplacian into its diagonal block, so the
cost is ``sum_c n_c^3`` rather than ``n^3``. Isolated nodes keep zero
rows. Inverting the blocks separately also keeps a component whose
weights are many decades below another's: one whole-matrix
eigendecomposition cuts its eigenvalues as rounding noise.

Disconnected graphs: commute times across components are infinite in
the random-walk sense. The pseudoinverse is block-diagonal, so the
formula still yields a finite value ``V_G * (l+_ii + l+_jj)`` with the
convention ``l+_ij = 0`` across components (note: *not* necessarily
large — ``l+`` diagonals are small inside well-connected components).
We keep that *block-pseudoinverse convention* (rather than returning
``inf``) because (a) it is exactly what the approximate embedding
converges to, so both backends agree, and (b) CAD consumes commute-time
*differences*: an edge deletion that splits a component moves ``c(i,j)``
from its connected value to the block value, a large finite jump either
way, which keeps the Case 3 scores well-behaved.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._validation import check_square
from ..exceptions import SolverError
from ..graphs.operations import connected_components
from ..observability import add_counter, trace
from .laplacian import dense_laplacian, graph_volume


def laplacian_pseudoinverse(adjacency: sp.spmatrix | np.ndarray) -> np.ndarray:
    """Dense Moore–Penrose pseudoinverse of the combinatorial Laplacian.

    Uses the eigendecomposition-based ``scipy.linalg.pinvh`` (the
    Laplacian is symmetric PSD), once per connected component with more
    than one node. The result is the ``(n, n)`` block-diagonal
    collection of the per-component pseudoinverses, zero across
    components and on isolated nodes' rows.
    """
    import scipy.linalg

    if not sp.issparse(adjacency):
        adjacency = np.asarray(adjacency, dtype=np.float64)
    check_square(adjacency, "adjacency")
    n = adjacency.shape[0]
    if n == 0:
        raise SolverError("cannot invert an empty Laplacian")
    # Label the edges the Laplacian sees: the CSR form (scipy's
    # dense-graph conversion drops weights below 1e-8) without stored
    # zeros. ``csr_matrix`` may share the caller's arrays, so prune a
    # copy.
    matrix = sp.csr_matrix(adjacency)
    if not matrix.data.all():
        matrix = matrix.copy()
        matrix.eliminate_zeros()
    count, labels = connected_components(matrix)
    with trace("pinv", n=n):
        add_counter("pinv_total")
        if count == 1:
            return scipy.linalg.pinvh(dense_laplacian(adjacency))
        pseudoinverse = np.zeros((n, n))
        order = np.argsort(labels, kind="stable")
        bounds = np.searchsorted(labels[order], np.arange(count + 1))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if stop - start < 2:
                continue
            nodes = order[start:stop]
            block = dense_laplacian(matrix[nodes][:, nodes])
            pseudoinverse[np.ix_(nodes, nodes)] = scipy.linalg.pinvh(block)
        return pseudoinverse


def commute_time_matrix(adjacency: sp.spmatrix | np.ndarray,
                        pseudoinverse: np.ndarray | None = None) -> np.ndarray:
    """Dense all-pairs commute time matrix (paper eq. 3).

    Args:
        adjacency: symmetric non-negative adjacency matrix.
        pseudoinverse: precomputed ``L^+`` (skips the O(n^3) step).

    Returns:
        ``(n, n)`` symmetric matrix with zero diagonal; entry ``(i, j)``
        is ``V_G * (l+_ii + l+_jj - 2 l+_ij)``.
    """
    if pseudoinverse is None:
        pseudoinverse = laplacian_pseudoinverse(adjacency)
    volume = graph_volume(adjacency)
    diagonal = np.diag(pseudoinverse)
    commute = volume * (
        diagonal[:, None] + diagonal[None, :] - 2.0 * pseudoinverse
    )
    # Numerical symmetrisation and exact-zero diagonal.
    commute = 0.5 * (commute + commute.T)
    np.fill_diagonal(commute, 0.0)
    np.clip(commute, 0.0, None, out=commute)
    return commute


def commute_times_for_pairs(adjacency: sp.spmatrix | np.ndarray,
                            rows: np.ndarray,
                            cols: np.ndarray,
                            pseudoinverse: np.ndarray | None = None,
                            ) -> np.ndarray:
    """Exact commute times for selected node pairs only.

    Args:
        adjacency: symmetric non-negative adjacency matrix.
        rows, cols: equal-length index arrays of pair endpoints.
        pseudoinverse: precomputed ``L^+``.

    Returns:
        Float array of per-pair commute times.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise SolverError(
            f"rows and cols must align, got {rows.shape} vs {cols.shape}"
        )
    if pseudoinverse is None:
        pseudoinverse = laplacian_pseudoinverse(adjacency)
    volume = graph_volume(adjacency)
    diagonal = np.diag(pseudoinverse)
    values = volume * (
        diagonal[rows] + diagonal[cols] - 2.0 * pseudoinverse[rows, cols]
    )
    return np.clip(values, 0.0, None)


def effective_resistance_matrix(
    adjacency: sp.spmatrix | np.ndarray,
    pseudoinverse: np.ndarray | None = None,
) -> np.ndarray:
    """All-pairs effective resistance ``r(i, j) = c(i, j) / V_G``."""
    commute = commute_time_matrix(adjacency, pseudoinverse)
    volume = graph_volume(adjacency)
    if volume <= 0:
        raise SolverError(
            "effective resistance undefined on an edgeless graph"
        )
    return commute / volume
