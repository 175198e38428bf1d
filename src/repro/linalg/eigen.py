"""Eigenvector routines built from scratch: power iteration, subspace
iteration, Fiedler vectors and Laplacian eigenmaps.

These serve two parts of the reproduction:

* the **ACT baseline** (Ide & Kashima) needs the principal eigenvector
  of each adjacency matrix ("activity vector") and the principal left
  singular vector of a window of past activity vectors;
* the paper's **Figure 2** visualises toy-graph structure with the 2nd
  and 3rd Laplacian eigenvectors (Laplacian eigenmaps).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._validation import as_rng, check_positive_float, check_positive_int
from ..exceptions import ConvergenceError, SolverError
from .laplacian import dense_laplacian


def principal_eigenvector(matrix: sp.spmatrix | np.ndarray,
                          tol: float = 1e-10,
                          max_iter: int = 5000,
                          seed=None,
                          residual_tol: float = 1e-7) -> np.ndarray:
    """Dominant eigenvector of a symmetric non-negative matrix.

    Classic power iteration with a deterministic-by-default start; the
    returned unit vector is sign-fixed so its largest-magnitude entry
    is positive, matching the Perron–Frobenius convention the ACT
    method relies on (activity vectors are entry-wise non-negative on
    a connected graph).

    Convergence uses two criteria: successive iterates agreeing to
    ``tol`` (the fast path on well-separated spectra), or the
    eigen-residual ``||A v - rho v||`` dropping below
    ``residual_tol * |rho|``. The residual test matters on
    near-degenerate dominant subspaces (e.g. an adjacency matrix of
    several similar, loosely coupled clusters): iterates can rotate
    within the dominant subspace indefinitely while any vector in it
    already is, for every practical purpose, a dominant eigenvector.

    Args:
        matrix: symmetric matrix (sparse or dense).
        tol: convergence threshold on successive-iterate distance.
        max_iter: iteration budget.
        seed: start-vector randomisation (defaults to all-ones start).
        residual_tol: relative eigen-residual threshold.

    Raises:
        ConvergenceError: when the budget is exhausted with the
            residual still large.
    """
    tol = check_positive_float(tol, "tol")
    max_iter = check_positive_int(max_iter, "max_iter")
    n = matrix.shape[0]
    if n == 0:
        raise SolverError("cannot take eigenvector of an empty matrix")
    if seed is None:
        vector = np.ones(n) / np.sqrt(n)
    else:
        vector = as_rng(seed).standard_normal(n)
        vector /= np.linalg.norm(vector)

    try:
        return _power_loop(matrix, vector, tol, max_iter, residual_tol)
    except ConvergenceError:
        # A bipartite spectrum pairs +lambda_max with -lambda_max and
        # the iterate oscillates between their mixture forever. Shift
        # to A + sI (same eigenvectors, strictly dominant top value)
        # and re-run; s >= lambda_max via the infinity norm.
        shift = float(np.max(np.abs(matrix).sum(axis=1)))
        if shift <= 0:
            raise
        if sp.issparse(matrix):
            shifted = matrix + shift * sp.identity(n, format="csr")
        else:
            shifted = matrix + shift * np.eye(n)
        return _power_loop(shifted, vector, tol, max_iter, residual_tol)


def _power_loop(matrix: sp.spmatrix | np.ndarray,
                vector: np.ndarray,
                tol: float,
                max_iter: int,
                residual_tol: float) -> np.ndarray:
    """One power-iteration run; raises ConvergenceError on exhaustion."""
    n = matrix.shape[0]
    for _iteration in range(max_iter):
        product = matrix @ vector
        norm = np.linalg.norm(product)
        if norm == 0.0:
            # Start vector orthogonal to the dominant eigenspace (or a
            # zero matrix); restart from a perturbed vector once.
            product = vector + 1e-6 * np.arange(1, n + 1)
            norm = np.linalg.norm(product)
        rho = float(vector @ product)  # Rayleigh quotient
        if abs(rho) > 0:
            residual = np.linalg.norm(product - rho * vector)
            if residual <= residual_tol * abs(rho):
                return _fix_sign(vector)
        candidate = product / norm
        # Eigenvectors are sign-ambiguous; compare up to sign.
        if min(np.linalg.norm(candidate - vector),
               np.linalg.norm(candidate + vector)) < tol:
            return _fix_sign(candidate)
        vector = candidate
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations"
    )


def top_eigenpairs(matrix: sp.spmatrix | np.ndarray,
                   count: int,
                   tol: float = 1e-10,
                   max_iter: int = 5000,
                   seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Leading eigenpairs by subspace (orthogonal) iteration.

    Args:
        matrix: symmetric matrix.
        count: number of leading eigenpairs (by |eigenvalue|).
        tol: convergence threshold on the subspace residual.
        max_iter: iteration budget.
        seed: randomisation of the start block.

    Returns:
        ``(values, vectors)`` with ``values`` of shape ``(count,)``
        sorted by descending magnitude and ``vectors`` of shape
        ``(n, count)``, columns orthonormal.
    """
    count = check_positive_int(count, "count")
    n = matrix.shape[0]
    if count > n:
        raise SolverError(f"requested {count} eigenpairs of a {n}x{n} matrix")
    rng = as_rng(seed)
    block = rng.standard_normal((n, count))
    block, _ = np.linalg.qr(block)
    values = np.zeros(count)
    for _iteration in range(max_iter):
        product = matrix @ block
        block_next, _ = np.linalg.qr(product)
        # Rayleigh–Ritz values on the current subspace.
        projected = block_next.T @ (matrix @ block_next)
        candidate_values = np.diag(projected).copy()
        if np.max(np.abs(candidate_values - values)) < tol * (
            1.0 + np.max(np.abs(candidate_values))
        ):
            order = np.argsort(-np.abs(candidate_values))
            return candidate_values[order], block_next[:, order]
        block = block_next
        values = candidate_values
    raise ConvergenceError(
        f"subspace iteration did not converge in {max_iter} iterations"
    )


def principal_left_singular_vector(matrix: np.ndarray) -> np.ndarray:
    """Principal left singular vector of a thin ``(n, w)`` matrix.

    Used by the ACT baseline to summarise a window of ``w`` past
    activity vectors into a single "typical pattern" ``r_t``. Computed
    from the ``w x w`` Gram matrix, so cost is ``O(n w^2)``.
    """
    thin = np.asarray(matrix, dtype=np.float64)
    if thin.ndim != 2 or thin.size == 0:
        raise SolverError(
            f"expected a non-empty 2-D matrix, got shape {thin.shape}"
        )
    if thin.shape[1] == 1:
        column = thin[:, 0]
        norm = np.linalg.norm(column)
        if norm == 0.0:
            return np.zeros_like(column)
        return _fix_sign(column / norm)
    gram = thin.T @ thin
    values, vectors = np.linalg.eigh(gram)
    right = vectors[:, -1]
    sigma = np.sqrt(max(values[-1], 0.0))
    if sigma == 0.0:
        return np.zeros(thin.shape[0])
    return _fix_sign(thin @ right / sigma)


def fiedler_vector(adjacency: sp.spmatrix | np.ndarray) -> np.ndarray:
    """Second-smallest Laplacian eigenvector (the Fiedler vector)."""
    return laplacian_eigenmaps(adjacency, dim=1)[:, 0]


def laplacian_eigenmaps(adjacency: sp.spmatrix | np.ndarray,
                        dim: int = 2) -> np.ndarray:
    """Laplacian eigenmap coordinates (paper Figure 2).

    Returns the eigenvectors of ``L = D - A`` for the ``dim`` smallest
    *non-trivial* eigenvalues (skipping the constant eigenvector), as
    an ``(n, dim)`` array. Dense eigendecomposition — intended for
    illustration-scale graphs like the 17-node toy example.

    Args:
        adjacency: symmetric non-negative adjacency matrix.
        dim: number of coordinates (>= 1).
    """
    import scipy.linalg

    dim = check_positive_int(dim, "dim")
    lap = dense_laplacian(adjacency)
    n = lap.shape[0]
    if dim + 1 > n:
        raise SolverError(
            f"cannot take {dim} non-trivial eigenvectors of a {n}-node graph"
        )
    values, vectors = scipy.linalg.eigh(lap)
    # Skip exactly one (near-)zero eigenvalue per the trivial constant
    # mode; for disconnected graphs further zero modes are informative
    # (they encode components) and are kept.
    return vectors[:, 1:dim + 1]


def _fix_sign(vector: np.ndarray) -> np.ndarray:
    """Flip sign so the largest-magnitude entry is positive."""
    pivot = np.argmax(np.abs(vector))
    if vector[pivot] < 0:
        return -vector
    return vector
