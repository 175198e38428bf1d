"""Laplacian linear-system solvers.

The approximate commute-time embedding (paper Section 3.1, following
Khoa & Chawla 2012) needs solutions of ``L z = y`` for ``k`` right-hand
sides. The original work uses a Spielman–Teng-style near-linear solver;
our substitute is a from-scratch **Jacobi-preconditioned conjugate
gradient** on per-component grounded Laplacians, with an optional
direct sparse-LU backend. Both return the *minimum-norm* solution
``z = L^+ y`` (zero mean per connected component), which is exactly
what the commute-time formulas require.

Laplacians are singular (constant vectors per component span the null
space), so the solver:

1. splits the graph into connected components,
2. projects each right-hand side to zero mean per component,
3. solves within each component (CG on the singular block started at
   zero, or LU on the grounded block with one node pinned to 0),
4. re-centres the solution to zero mean per component.

Components follow the entries with nonzero weight, the same entries
the Laplacian uses: an explicitly stored 0.0 is no edge.

Many right-hand sides go through :func:`block_conjugate_gradient`,
which iterates the columns in lockstep with one sparse mat-mat product
and one vectorised reduction per per-column quantity, and solves
column groups fixed by the problem's size on the process's cores
(one at a time above about 84,000 rows). Grade: deterministic for a
given input and independent of the thread count; within about 1e-15
relative of a column-by-column run (not bit for bit with it) and of
earlier releases (bit for bit on every input checked).
"""

from __future__ import annotations

import itertools
import os

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_float, check_positive_int
from ..exceptions import ConvergenceError, SolverError
from ..graphs.operations import connected_components
from ..observability import add_counter, trace
from .laplacian import laplacian

#: Pair right-hand sides batched per :meth:`LaplacianSolver.solve_many`
#: call inside ``commute_times_for_pairs`` (bounds peak memory at
#: ``n * _PAIR_CHUNK`` floats while still amortising the solver state).
_PAIR_CHUNK = 64

#: Byte budget for the working set of :func:`block_conjugate_gradient`,
#: summed over the column groups it solves at once; one group is at
#: most as wide as fits alone (50 columns up to about 84,000 rows).
_CG_WORKING_SET_BYTES = 192 * 2**20

#: Most columns in one column group of :func:`block_conjugate_gradient`.
_CG_GROUP_COLUMNS = 25

#: Fewest entries (rows x columns) in one group where the number of
#: columns allows: smaller groups cost more together than one batch.
_CG_GROUP_MIN_ENTRIES = 2**14


def conjugate_gradient(matrix: sp.spmatrix,
                       rhs: np.ndarray,
                       tol: float = 1e-10,
                       max_iter: int | None = None,
                       preconditioner: np.ndarray | None = None,
                       x0: np.ndarray | None = None) -> np.ndarray:
    """Preconditioned conjugate gradient for symmetric PSD systems.

    A textbook PCG implementation written from scratch (no scipy
    iterative solvers): the one-column case of
    :func:`block_conjugate_gradient`. For singular PSD systems the
    right-hand side must lie in the range of ``matrix``; starting from
    ``x0 = 0`` the iterates then stay in the range and converge to the
    minimum-norm solution (up to roundoff).

    Args:
        matrix: symmetric positive semi-definite sparse matrix.
        rhs: right-hand side vector.
        tol: relative residual tolerance ``||r|| <= tol * ||b||``.
        max_iter: iteration budget; defaults to ``10 * n + 100``.
        preconditioner: inverse-diagonal vector ``M^{-1}`` (Jacobi);
            identity when omitted.
        x0: starting iterate; zeros when omitted.

    Returns:
        The solution vector.

    Raises:
        ConvergenceError: when the budget is exhausted above tolerance.
        SolverError: on a shape mismatch, or on a zero-curvature
            direction while the residual is still large.
    """
    n = matrix.shape[0]
    b = np.asarray(rhs, dtype=np.float64)
    if b.shape != (n,):
        raise SolverError(f"rhs has shape {b.shape}, expected ({n},)")
    return block_conjugate_gradient(
        matrix, b[:, None], tol=tol, max_iter=max_iter,
        preconditioner=preconditioner,
        x0=None if x0 is None else np.asarray(x0, dtype=np.float64)[:, None],
    )[:, 0]


def block_conjugate_gradient(matrix: sp.spmatrix,
                             rhs_columns: np.ndarray,
                             tol: float = 1e-10,
                             max_iter: int | None = None,
                             preconditioner: np.ndarray | None = None,
                             x0: np.ndarray | None = None,
                             ) -> np.ndarray:
    """Multi-RHS PCG: every column iterated in lockstep.

    Each column runs its own PCG recurrence (its own step length, β,
    residual test and budget; this is *not* a coupled block-Krylov
    method), but the still-active columns of a group advance through
    one shared sparse mat-mat product per iteration and share the
    Jacobi preconditioner. The active columns are held as C-contiguous
    ``(n, active)`` arrays: a column that meets its threshold (or
    leaves by the zero-curvature rule) has its iterate written to the
    output and is dropped from the working set, and every per-column
    reduction (residual norm, curvature, ρ) is one ``einsum`` over the
    whole set. The loop calls no BLAS.

    The columns are split into groups of equal width (±1) whose number
    depends on n and k only: at most ``_CG_GROUP_COLUMNS`` columns and,
    where k allows, at least ``_CG_GROUP_MIN_ENTRIES`` entries per
    group, and never wider than keeps one group's working set within
    ``_CG_WORKING_SET_BYTES``. The groups run at once on up to
    :func:`_thread_budget` threads, the caller among them, as many as
    keep their joint working set within that budget: 50 columns are
    two groups of 25 from 656 rows up, solved one at a time above
    about 84,000 rows.

    Grade: deterministic for a given input, whatever the process or
    the thread count. Within about 1e-15 relative of earlier releases
    (bit for bit on every input checked), but not bit for bit with a
    per-column loop or a column solved alone: ``einsum`` reduces a
    lone column with a different kernel than a batch, and a group can
    narrow to one column where a wider batch would not.

    Args / raises: as :func:`conjugate_gradient`, with ``rhs_columns``
    and ``x0`` of shape ``(n, k)``. The threshold ``tol * ||b_c||``,
    the budget and the zero-curvature escape (accept within
    ``sqrt(tol) * ||b_c||``, else raise) apply per column. An all-zero
    column returns zeros at no iteration cost. A group whose columns
    exhaust their budget raises one ``ConvergenceError`` naming how
    many of its columns failed and the worst one by its index in
    ``rhs_columns``. When groups fail, the running ones finish first
    and the lowest-index failing group's error is raised;
    ``cg_iterations_total`` then may include groups that ran beside
    it.
    """
    n = matrix.shape[0]
    tol = check_positive_float(tol, "tol")
    if max_iter is None:
        max_iter = 10 * n + 100
    max_iter = check_positive_int(max_iter, "max_iter")
    b = np.asarray(rhs_columns, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != n:
        raise SolverError(
            f"rhs matrix has shape {b.shape}, expected ({n}, k)"
        )
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != b.shape:
            raise SolverError(
                f"x0 has shape {x0.shape}, expected {b.shape}"
            )
    x = np.zeros_like(b)
    k = b.shape[1]
    # Six float64 (n, columns) arrays live at once per group: iterate,
    # residual, direction, preconditioned residual, mat-mat product,
    # temporary.
    width = max(1, _CG_WORKING_SET_BYTES // (6 * 8 * max(n, 1)))
    count = max(1, -(-k // width), min(-(-k // _CG_GROUP_COLUMNS),
                                       n * k // _CG_GROUP_MIN_ENTRIES))
    bounds = [k * group // count for group in range(count + 1)]
    concurrency = 1 if count == 1 else min(
        _thread_budget(), count, width // -(-k // count)
    )

    def solve(group):
        chunk = slice(bounds[group], bounds[group + 1])
        _solve_chunk(matrix, b[:, chunk], x[:, chunk], chunk.start, tol,
                     max_iter, preconditioner,
                     None if x0 is None else x0[:, chunk])

    errors = _run_groups(solve, count, concurrency)
    if errors:
        error = errors[min(errors)]
        if isinstance(error, ConvergenceError):
            add_counter("cg_convergence_failures_total")
        raise error
    return x


def _thread_budget() -> int:
    """Threads :func:`block_conjugate_gradient` may run at once.

    The CPUs in the process's affinity mask, lowered to the first of
    ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` that is set to a
    positive integer: the limit the process's BLAS already obeys.
    """
    try:
        budget = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        budget = os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            limit = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if limit > 0:
            return min(budget, limit)
    return budget


def _run_groups(solve, count: int,
                concurrency: int) -> dict[int, Exception]:
    """Call ``solve(group)`` for each group below ``count`` on
    ``concurrency`` threads, the caller one of them.

    Threads take groups in index order from a shared counter and take
    none once a group has failed, so every group below a failing one
    has run and the lowest failing index does not depend on timing.
    Returns the failed groups' exceptions by index. The helpers come
    from a pool built for this call, so none outlives it (the parallel
    engine forks); the caller takes groups too because every thread
    keeps its own malloc arena at its peak after the call.
    """
    errors: dict[int, Exception] = {}
    claims = itertools.count()  # next() is atomic under the GIL

    def take_groups():
        while not errors:
            group = next(claims)
            if group >= count:
                return
            try:
                solve(group)
            except Exception as error:
                errors[group] = error

    if concurrency > 1:
        # Imported lazily: only wide solves need it.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(concurrency - 1) as pool:
            helpers = [pool.submit(take_groups)
                       for _ in range(concurrency - 1)]
            take_groups()
            for helper in helpers:
                helper.result()
    else:
        take_groups()
    return errors


def _solve_chunk(matrix, b, out, first, tol, max_iter, preconditioner,
                 x0) -> None:
    """Run block PCG on the columns of ``b``, writing into ``out``.

    ``first`` is the group's offset in the caller's columns, for error
    messages. The working arrays hold the active columns only, as
    C-contiguous ``(n, active)`` arrays (``compress`` keeps that
    layout; fancy indexing along axis 1 would not); ``columns`` maps
    their positions back to ``b``'s.
    """
    b_norm = np.sqrt(np.einsum("ij,ij->j", b, b))
    nonzero = b_norm > 0.0
    if not nonzero.any():
        return
    columns = np.flatnonzero(nonzero)
    b_norm = b_norm[nonzero]
    threshold = tol * b_norm
    residual = b.compress(nonzero, axis=1)
    if x0 is None:
        x = np.zeros_like(residual)
    else:
        x = x0.compress(nonzero, axis=1)
        residual -= matrix @ x
    z = residual if preconditioner is None else (
        preconditioner[:, None] * residual
    )
    direction = z.copy()
    rho = np.einsum("ij,ij->j", residual, z)

    def leave(gone):
        # Write the leaving columns' iterates out, then keep the rest.
        nonlocal columns, x, residual, direction, rho, threshold, b_norm
        out[:, columns[gone]] = x[:, gone]
        stay = ~gone
        columns, x, residual, direction, rho, threshold, b_norm = (
            array.compress(stay, axis=-1) for array in
            (columns, x, residual, direction, rho, threshold, b_norm)
        )
        return stay

    spent = 0
    for _iteration in range(max_iter):
        res_norm = np.sqrt(np.einsum("ij,ij->j", residual, residual))
        done = res_norm <= threshold
        if done.any():
            res_norm = res_norm[leave(done)]
            if columns.size == 0:
                break
        spent += columns.size
        a_direction = matrix @ direction
        curvature = np.einsum("ij,ij->j", direction, a_direction)
        flat = curvature <= 0.0
        if flat.any():
            # Null-space direction reached on some columns: accept the
            # converged-enough ones, fail loudly otherwise.
            if np.any(res_norm[flat] > np.sqrt(tol) * b_norm[flat]):
                add_counter("cg_iterations_total", spent)
                raise SolverError(
                    "conjugate gradient hit a zero-curvature "
                    "direction; is the right-hand side in the "
                    "range of the matrix?"
                )
            stay = leave(flat)
            if columns.size == 0:
                break
            a_direction = a_direction.compress(stay, axis=1)
            curvature = curvature[stay]
        step = rho / curvature
        x += step * direction
        residual -= step * a_direction
        z = residual if preconditioner is None else (
            preconditioner[:, None] * residual
        )
        rho_next = np.einsum("ij,ij->j", residual, z)
        direction *= rho_next / rho
        direction += z
        rho = rho_next

    add_counter("cg_iterations_total", spent)
    if columns.size == 0:
        return
    res_norm = np.sqrt(np.einsum("ij,ij->j", residual, residual))
    failed = res_norm > threshold
    if failed.any():
        worst = int(np.argmax(res_norm - threshold))
        raise ConvergenceError(
            f"conjugate gradient did not converge in {max_iter} "
            f"iterations on {int(failed.sum())} of {b.shape[1]} columns "
            f"(worst column {first + int(columns[worst])}: residual "
            f"{res_norm[worst]:.3e}, target {threshold[worst]:.3e})"
        )
    out[:, columns] = x


class LaplacianSolver:
    """Reusable solver for ``L^+ y`` on a fixed graph.

    Build once per snapshot, then call :meth:`solve` for each of the
    embedding's ``k`` right-hand sides — component analysis (and, for
    the direct backend, the LU factorisation) is shared across calls.

    Args:
        adjacency: symmetric non-negative adjacency matrix.
        method: ``"cg"`` (Jacobi-preconditioned CG, default) or
            ``"direct"`` (sparse LU of the grounded component blocks;
            faster for many right-hand sides on mid-size graphs).
        tol: CG relative residual tolerance.
        max_iter: CG iteration budget (default chosen from n).
    """

    def __init__(self, adjacency: sp.spmatrix | np.ndarray,
                 method: str = "cg",
                 tol: float = 1e-10,
                 max_iter: int | None = None):
        if method not in ("cg", "direct"):
            raise SolverError(f"unknown solver method {method!r}")
        matrix = (
            adjacency.tocsr() if sp.issparse(adjacency)
            else sp.csr_matrix(np.asarray(adjacency, dtype=np.float64))
        )
        if not matrix.data.all():
            # A stored zero is no edge: components must follow the
            # weighted entries the Laplacian uses. ``tocsr()`` may have
            # returned the caller's matrix, so prune a copy.
            matrix = matrix.copy()
            matrix.eliminate_zeros()
        self._n = matrix.shape[0]
        self._method = method
        self._tol = check_positive_float(tol, "tol")
        self._max_iter = max_iter
        self._laplacian = laplacian(matrix)
        count, labels = connected_components(matrix)
        self._component_labels = labels
        self._components: list[np.ndarray] = [
            np.flatnonzero(labels == c) for c in range(count)
        ]
        self._blocks: list[sp.csr_matrix | None] = []
        self._preconditioners: list[np.ndarray | None] = []
        self._factorizations: list = []
        for nodes in self._components:
            if nodes.size < 2:
                self._blocks.append(None)
                self._preconditioners.append(None)
                self._factorizations.append(None)
                continue
            block = self._laplacian[np.ix_(nodes, nodes)].tocsr()
            self._blocks.append(block)
            if method == "cg":
                diag = block.diagonal()
                inverse_diag = np.where(diag > 0, 1.0 / diag, 0.0)
                self._preconditioners.append(inverse_diag)
                self._factorizations.append(None)
            else:
                from scipy.sparse.linalg import splu

                grounded = block[1:, 1:].tocsc()
                self._preconditioners.append(None)
                self._factorizations.append(splu(grounded))

    @property
    def num_components(self) -> int:
        """Number of connected components of the underlying graph."""
        return len(self._components)

    @property
    def component_labels(self) -> np.ndarray:
        """Per-node component ids (length n)."""
        return self._component_labels

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Return the minimum-norm solution ``x = L^+ rhs``.

        The right-hand side is first projected onto the range of ``L``
        (zero mean per component), so any vector is accepted; the
        returned solution has zero mean on every component.
        """
        b = np.asarray(rhs, dtype=np.float64)
        if b.shape != (self._n,):
            raise SolverError(
                f"rhs has shape {b.shape}, expected ({self._n},)"
            )
        with trace("solver.solve", n=self._n, method=self._method):
            add_counter("solver_solves_total", backend=self._method)
            x = np.zeros(self._n)
            for c, nodes in enumerate(self._components):
                if nodes.size < 2:
                    continue
                local = b[nodes] - b[nodes].mean()
                if not np.any(local):
                    continue
                if self._method == "cg":
                    solution = conjugate_gradient(
                        self._blocks[c], local,
                        tol=self._tol,
                        max_iter=self._max_iter,
                        preconditioner=self._preconditioners[c],
                    )
                else:
                    solution = np.empty(nodes.size)
                    solution[0] = 0.0
                    solution[1:] = self._factorizations[c].solve(local[1:])
                solution -= solution.mean()
                x[nodes] = solution
            return x

    def commute_times_for_pairs(self, rows: np.ndarray,
                                cols: np.ndarray) -> np.ndarray:
        """Exact commute times for selected pairs via single solves.

        ``c(i, j) = V_G * (e_i - e_j)^T L^+ (e_i - e_j)`` needs one
        Laplacian solve per pair — O(pairs * solve) instead of the
        O(n^3) full pseudoinverse, which makes exact spot-checks
        affordable on graphs far beyond the dense backend's reach
        (used e.g. by
        :func:`~repro.linalg.embedding.estimate_embedding_error`).

        Cross-component pairs follow the same block-pseudoinverse
        convention as the dense backend.

        Pair right-hand sides are batched through :meth:`solve_many`
        in chunks, so one transition's pair queries share the
        component analysis, the Jacobi preconditioner state (CG) or
        the LU factorisation (direct) across the whole batch instead
        of re-entering the solver once per pair.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise SolverError(
                f"rows and cols must align, got {rows.shape} vs "
                f"{cols.shape}"
            )
        volume = float(self._laplacian.diagonal().sum())
        values = np.empty(rows.size)
        with trace("solver.pairs", n=self._n, pairs=rows.size):
            for start in range(0, rows.size, _PAIR_CHUNK):
                stop = min(start + _PAIR_CHUNK, rows.size)
                chunk_rows = rows[start:stop]
                chunk_cols = cols[start:stop]
                rhs = np.zeros((self._n, stop - start))
                span = np.arange(stop - start)
                rhs[chunk_rows, span] = 1.0
                rhs[chunk_cols, span] -= 1.0  # self-pairs cancel to 0
                solutions = self.solve_many(rhs)
                values[start:stop] = volume * (
                    solutions[chunk_rows, span]
                    - solutions[chunk_cols, span]
                )
        return np.clip(values, 0.0, None)

    def solve_many(self, rhs_matrix: np.ndarray) -> np.ndarray:
        """Solve for each column of ``rhs_matrix``; returns same shape.

        Both backends batch all columns per component: the direct
        backend in one triangular sweep (``splu`` factorisations
        accept matrix right-hand sides), the CG backend through
        :func:`block_conjugate_gradient`, which advances every column
        per iteration with one shared sparse mat-mat product and the
        shared Jacobi preconditioner.
        """
        columns = np.asarray(rhs_matrix, dtype=np.float64)
        if columns.ndim != 2 or columns.shape[0] != self._n:
            raise SolverError(
                f"rhs matrix has shape {columns.shape}, expected "
                f"({self._n}, k)"
            )
        with trace("solver.solve_many", n=self._n,
                   columns=columns.shape[1]):
            add_counter("solver_solves_total", columns.shape[1],
                        backend=self._method)
            if len(self._components) == 1 and self._n > 1:
                # One component spans every node: no gather or scatter.
                local = columns - columns.mean(axis=0)
                return self._solve_block(0, local)
            result = np.zeros_like(columns)
            for c, nodes in enumerate(self._components):
                if nodes.size < 2:
                    continue
                local = columns[nodes]
                local -= local.mean(axis=0)
                result[nodes] = self._solve_block(c, local)
            return result

    def _solve_block(self, c: int, local: np.ndarray) -> np.ndarray:
        """Minimum-norm solve of component ``c`` for zero-mean ``local``.

        ``local`` is ``(size, k)``; the result is re-centred in place.
        """
        if self._method == "cg":
            solution = block_conjugate_gradient(
                self._blocks[c], local,
                tol=self._tol,
                max_iter=self._max_iter,
                preconditioner=self._preconditioners[c],
            )
        else:
            solution = np.empty_like(local)
            solution[0, :] = 0.0
            solution[1:, :] = self._factorizations[c].solve(local[1:, :])
        solution -= solution.mean(axis=0)
        return solution


def make_solver(adjacency: sp.spmatrix | np.ndarray,
                solver="cg",
                tol: float = 1e-10,
                max_iter: int | None = None,
                health=None):
    """Build the Laplacian solve backend named by ``solver``.

    The single dispatch point between the plain per-method
    :class:`LaplacianSolver` and the resilient
    :class:`~repro.resilience.fallback.FallbackSolver`, shared by the
    embedding and its diagnostics.

    Args:
        adjacency: symmetric non-negative adjacency matrix.
        solver: ``"cg"``, ``"direct"``, ``"fallback"`` (default
            escalation chain), or a
            :class:`~repro.resilience.fallback.FallbackPolicy` instance
            for a tuned chain.
        tol: CG tolerance (also the fallback chain's first-stage target).
        max_iter: CG iteration budget.
        health: optional
            :class:`~repro.resilience.health.HealthMonitor` receiving
            per-solve records (fallback chains only).

    Raises:
        SolverError: on an unrecognised ``solver`` value.
    """
    if isinstance(solver, str) and solver in ("cg", "direct"):
        return LaplacianSolver(adjacency, method=solver, tol=tol,
                               max_iter=max_iter)
    # Imported lazily: repro.resilience depends on this module.
    from ..resilience.fallback import FallbackSolver, resolve_policy

    return FallbackSolver(adjacency, policy=resolve_policy(solver),
                          tol=tol, max_iter=max_iter, health=health)
