"""Exact commute times via the Laplacian Moore–Penrose pseudoinverse.

This is the paper's equation (3)::

    c(i, j) = V_G * (l+_ii + l+_jj - 2 l+_ij)

computed from the dense pseudoinverse ``L^+``. Exact computation is
O(n^3) and intended for graphs up to a few thousand nodes (the paper
itself uses it for the 151-node Enron graphs); larger graphs should use
:mod:`repro.linalg.embedding`.

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

from ..exceptions import SolverError
from ..observability import add_counter, trace
from .laplacian import dense_laplacian, graph_volume


def laplacian_pseudoinverse(adjacency: sp.spmatrix | np.ndarray) -> np.ndarray:
    """Dense Moore–Penrose pseudoinverse of the combinatorial Laplacian.

    Uses the eigendecomposition-based ``scipy.linalg.pinvh`` (the
    Laplacian is symmetric PSD). For disconnected graphs the result is
    the block-diagonal collection of per-component pseudoinverses.
    """
    import scipy.linalg

    lap = dense_laplacian(adjacency)
    if lap.shape[0] == 0:
        raise SolverError("cannot invert an empty Laplacian")
    with trace("pinv", n=lap.shape[0]):
        add_counter("pinv_total")
        return scipy.linalg.pinvh(lap)


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
