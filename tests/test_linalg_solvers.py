"""Unit tests for the CG solver and the Laplacian solver."""

import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConvergenceError, SolverError
from repro.graphs import random_sparse_graph
from repro.linalg import (
    LaplacianSolver,
    block_conjugate_gradient,
    conjugate_gradient,
    dense_laplacian,
    laplacian,
    laplacian_pseudoinverse,
    solvers,
)
from repro.observability import collecting

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def _spd_system(n=30, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    matrix = a @ a.T + n * np.eye(n)
    b = rng.standard_normal(n)
    return sp.csr_matrix(matrix), b


class TestConjugateGradient:
    def test_solves_spd(self):
        matrix, b = _spd_system()
        x = conjugate_gradient(matrix, b, tol=1e-12)
        np.testing.assert_allclose(matrix @ x, b, atol=1e-8)

    def test_jacobi_preconditioner(self):
        matrix, b = _spd_system(seed=1)
        inverse_diag = 1.0 / matrix.diagonal()
        x = conjugate_gradient(matrix, b, tol=1e-12,
                               preconditioner=inverse_diag)
        np.testing.assert_allclose(matrix @ x, b, atol=1e-8)

    def test_zero_rhs(self):
        matrix, _ = _spd_system()
        x = conjugate_gradient(matrix, np.zeros(matrix.shape[0]))
        assert np.all(x == 0.0)

    def test_singular_laplacian_in_range(self, random_connected_graph):
        lap = laplacian(random_connected_graph.adjacency)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(lap.shape[0])
        b -= b.mean()  # project into range(L)
        x = conjugate_gradient(lap, b, tol=1e-10,
                               preconditioner=1.0 / lap.diagonal())
        np.testing.assert_allclose(lap @ x, b, atol=1e-6)

    def test_budget_exhaustion_raises(self):
        matrix, b = _spd_system(n=50, seed=3)
        with pytest.raises(ConvergenceError):
            conjugate_gradient(matrix, b, tol=1e-14, max_iter=2)

    def test_shape_mismatch_raises(self):
        matrix, _ = _spd_system()
        with pytest.raises(SolverError):
            conjugate_gradient(matrix, np.zeros(3))

    def test_zero_curvature_raises(self):
        # The zero matrix is symmetric PSD with an empty range, so the
        # first search direction has exactly zero curvature while the
        # residual is still the full right-hand side.
        matrix = sp.csr_matrix((5, 5))
        with pytest.raises(SolverError, match="curvature"):
            conjugate_gradient(matrix, np.ones(5), tol=1e-12)

    def test_zero_curvature_accepts_converged_iterate(self):
        # A singular system whose in-range part is already solved at
        # x0: the remaining residual is pure null-space direction
        # (curvature exactly zero) but sits inside the sqrt(tol)
        # acceptance band, so CG returns instead of raising.
        matrix = sp.csr_matrix(np.diag([1.0, 1.0, 0.0]))
        b = np.array([1.0, -1.0, 1e-9])
        x = conjugate_gradient(matrix, b, tol=1e-16,
                               x0=np.array([1.0, -1.0, 0.0]))
        np.testing.assert_allclose(matrix @ x, [1.0, -1.0, 0.0],
                                   atol=1e-12)

    def test_matches_scipy(self):
        from scipy.sparse.linalg import cg as scipy_cg

        matrix, b = _spd_system(seed=4)
        ours = conjugate_gradient(matrix, b, tol=1e-12)
        theirs, info = scipy_cg(matrix, b, rtol=1e-12)
        assert info == 0
        np.testing.assert_allclose(ours, theirs, atol=1e-6)


class TestLaplacianSolver:
    @pytest.mark.parametrize("method", ["cg", "direct"])
    def test_matches_pseudoinverse(self, random_connected_graph, method):
        adjacency = random_connected_graph.adjacency
        solver = LaplacianSolver(adjacency, method=method, tol=1e-12)
        pseudo = laplacian_pseudoinverse(adjacency)
        rng = np.random.default_rng(7)
        for _ in range(3):
            b = rng.standard_normal(adjacency.shape[0])
            expected = pseudo @ (b - b.mean())
            np.testing.assert_allclose(
                solver.solve(b), expected, atol=1e-7
            )

    @pytest.mark.parametrize("method", ["cg", "direct"])
    def test_disconnected(self, disconnected_graph, method):
        solver = LaplacianSolver(disconnected_graph.adjacency,
                                 method=method)
        assert solver.num_components == 2
        b = np.array([1.0, -1.0, 2.0, 0.0])
        x = solver.solve(b)
        # zero mean per component
        assert x[:2].sum() == pytest.approx(0.0, abs=1e-10)
        assert x[2:].sum() == pytest.approx(0.0, abs=1e-10)
        pseudo = laplacian_pseudoinverse(disconnected_graph.adjacency)
        np.testing.assert_allclose(x, pseudo @ _project(b, solver),
                                   atol=1e-8)

    def test_isolated_nodes_get_zero(self):
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        solver = LaplacianSolver(adjacency)
        x = solver.solve(np.array([1.0, 0.0, 5.0]))
        assert x[2] == 0.0

    def test_solve_many(self, random_connected_graph):
        adjacency = random_connected_graph.adjacency
        solver = LaplacianSolver(adjacency, method="direct")
        rng = np.random.default_rng(8)
        rhs = rng.standard_normal((adjacency.shape[0], 4))
        stacked = solver.solve_many(rhs)
        for j in range(4):
            np.testing.assert_allclose(
                stacked[:, j], solver.solve(rhs[:, j]), atol=1e-12
            )

    def test_rejects_unknown_method(self, path_graph):
        with pytest.raises(SolverError):
            LaplacianSolver(path_graph.adjacency, method="magic")

    def test_rejects_bad_rhs_shape(self, path_graph):
        solver = LaplacianSolver(path_graph.adjacency)
        with pytest.raises(SolverError):
            solver.solve(np.zeros(7))
        with pytest.raises(SolverError):
            solver.solve_many(np.zeros((7, 2)))

    def test_cg_budget_exhaustion_surfaces(self, random_connected_graph):
        solver = LaplacianSolver(random_connected_graph.adjacency,
                                 method="cg", tol=1e-14, max_iter=1)
        b = np.random.default_rng(10).standard_normal(
            random_connected_graph.num_nodes
        )
        with pytest.raises(ConvergenceError):
            solver.solve(b)

    def test_pair_shape_mismatch_rejected(self, random_connected_graph):
        solver = LaplacianSolver(random_connected_graph.adjacency)
        with pytest.raises(SolverError, match="align"):
            solver.commute_times_for_pairs(np.array([0, 1]),
                                           np.array([2]))

    def test_solve_many_direct_matches_cg(self, random_connected_graph):
        adjacency = random_connected_graph.adjacency
        rng = np.random.default_rng(11)
        rhs = rng.standard_normal((adjacency.shape[0], 5))
        direct = LaplacianSolver(adjacency, method="direct")
        cg = LaplacianSolver(adjacency, method="cg", tol=1e-12)
        np.testing.assert_allclose(direct.solve_many(rhs),
                                   cg.solve_many(rhs), atol=1e-7)

    def test_solve_many_direct_disconnected(self, disconnected_graph):
        # The batched direct path works per component and leaves
        # isolated structure untouched.
        solver = LaplacianSolver(disconnected_graph.adjacency,
                                 method="direct")
        rng = np.random.default_rng(12)
        rhs = rng.standard_normal((4, 3))
        stacked = solver.solve_many(rhs)
        for j in range(3):
            np.testing.assert_allclose(stacked[:, j],
                                       solver.solve(rhs[:, j]),
                                       atol=1e-12)
        # zero mean per component, column-wise
        np.testing.assert_allclose(stacked[:2].sum(axis=0), 0.0,
                                   atol=1e-10)
        np.testing.assert_allclose(stacked[2:].sum(axis=0), 0.0,
                                   atol=1e-10)

    def test_solve_many_direct_with_isolated_nodes(self):
        adjacency = np.zeros((4, 4))
        adjacency[0, 1] = adjacency[1, 0] = 2.0
        solver = LaplacianSolver(adjacency, method="direct")
        rhs = np.random.default_rng(13).standard_normal((4, 2))
        stacked = solver.solve_many(rhs)
        np.testing.assert_array_equal(stacked[2], 0.0)
        np.testing.assert_array_equal(stacked[3], 0.0)
        for j in range(2):
            np.testing.assert_allclose(stacked[:, j],
                                       solver.solve(rhs[:, j]),
                                       atol=1e-12)

    def test_cg_and_direct_agree(self, random_connected_graph):
        adjacency = random_connected_graph.adjacency
        b = np.random.default_rng(9).standard_normal(adjacency.shape[0])
        x_cg = LaplacianSolver(adjacency, method="cg", tol=1e-12).solve(b)
        x_direct = LaplacianSolver(adjacency, method="direct").solve(b)
        np.testing.assert_allclose(x_cg, x_direct, atol=1e-7)


def _project(b: np.ndarray, solver: LaplacianSolver) -> np.ndarray:
    """Zero-mean projection of b per component of the solver's graph."""
    out = b.astype(float).copy()
    labels = solver.component_labels
    for c in range(solver.num_components):
        mask = labels == c
        out[mask] -= out[mask].mean()
    return out


class TestSolveManyEmptyComponents:
    """A component can lose every edge after sanitization (a block of
    NaN weights repaired to zeros): ``solve_many`` must treat the
    survivors normally and leave the stripped component at zero rather
    than crash or pollute other components."""

    @pytest.mark.parametrize("method", ["direct", "cg"])
    def test_fully_edgeless_graph(self, method):
        solver = LaplacianSolver(np.zeros((5, 5)), method=method)
        rhs = np.random.default_rng(14).standard_normal((5, 3))
        stacked = solver.solve_many(rhs)
        np.testing.assert_array_equal(stacked, 0.0)
        np.testing.assert_array_equal(solver.solve(rhs[:, 0]), 0.0)

    def test_zero_column_rhs(self, random_connected_graph):
        solver = LaplacianSolver(random_connected_graph.adjacency,
                                 method="direct")
        n = random_connected_graph.num_nodes
        stacked = solver.solve_many(np.zeros((n, 0)))
        assert stacked.shape == (n, 0)

    @pytest.mark.parametrize("method", ["direct", "cg"])
    def test_component_emptied_by_sanitization(self, method):
        from repro.graphs import sanitize_adjacency

        # Two 4-node blocks; the second is entirely NaN and the repair
        # policy zeroes it, leaving 4 isolated (edgeless) nodes.
        adjacency = np.zeros((8, 8))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        adjacency[1, 2] = adjacency[2, 1] = 2.0
        adjacency[2, 3] = adjacency[3, 2] = 1.5
        adjacency[0, 3] = adjacency[3, 0] = 0.5
        adjacency[4:, 4:] = np.nan
        np.fill_diagonal(adjacency, 0.0)
        repaired, report = sanitize_adjacency(adjacency,
                                              policy="repair")
        assert report.repaired
        solver = LaplacianSolver(repaired, method=method)
        rhs = np.random.default_rng(15).standard_normal((8, 3))
        stacked = solver.solve_many(rhs)
        np.testing.assert_array_equal(stacked[4:], 0.0)
        # The healthy component solves exactly as it would alone.
        alone = LaplacianSolver(adjacency[:4, :4], method=method)
        np.testing.assert_allclose(
            stacked[:4], alone.solve_many(rhs[:4]), atol=1e-8,
        )
        for j in range(3):
            np.testing.assert_allclose(stacked[:, j],
                                       solver.solve(rhs[:, j]),
                                       atol=1e-10)


# --- Block CG against the per-column reference -----------------------


def _reference_pcg(matrix, b, tol=1e-10, max_iter=None,
                   preconditioner=None):
    """Per-column PCG, one vector at a time: the reference recurrence.

    Returns ``(x, iterations)`` where ``iterations`` counts the steps
    taken before the residual test passed.
    """
    n = matrix.shape[0]
    max_iter = 10 * n + 100 if max_iter is None else max_iter
    x = np.zeros(n)
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return x, 0
    threshold = tol * b_norm
    residual = b.copy()
    z = residual if preconditioner is None else preconditioner * residual
    direction = z.copy()
    rho = float(residual @ z)
    for iteration in range(max_iter):
        if np.linalg.norm(residual) <= threshold:
            return x, iteration
        a_direction = matrix @ direction
        curvature = float(direction @ a_direction)
        if curvature <= 0.0:
            raise SolverError("zero curvature")
        step = rho / curvature
        x += step * direction
        residual -= step * a_direction
        z = residual if preconditioner is None else preconditioner * residual
        rho_next = float(residual @ z)
        direction = z + (rho_next / rho) * direction
        rho = rho_next
    raise ConvergenceError("reference budget exhausted")


def _laplacian_system(n, k, seed):
    """A random connected graph's Laplacian, its Jacobi preconditioner
    and ``k`` right-hand sides centred into the Laplacian's range."""
    graph = random_sparse_graph(n, mean_degree=4.0, seed=seed,
                                connected=True)
    lap = laplacian(graph.adjacency)
    rhs = np.random.default_rng(seed).standard_normal((n, k))
    return lap, 1.0 / lap.diagonal(), rhs - rhs.mean(axis=0)


class TestBlockConjugateGradient:
    """Block CG keeps the per-column contract of the reference loop;
    its reductions run in a different order, so results agree to
    rounding, not bit for bit."""

    # n = 10,000 makes every reduction longer than numpy's 8,192-element
    # buffer.
    @pytest.mark.parametrize("n, k, seed", [(40, 5, 0), (700, 8, 1),
                                            (10_000, 6, 2)])
    def test_matches_reference_columns(self, n, k, seed):
        lap, inverse_diag, rhs = _laplacian_system(n, k, seed)
        with collecting() as registry:
            block = block_conjugate_gradient(lap, rhs, tol=1e-10,
                                             preconditioner=inverse_diag)
        reference_iterations = 0
        for c in range(k):
            expected, iterations = _reference_pcg(
                lap, rhs[:, c], tol=1e-10, preconditioner=inverse_diag,
            )
            reference_iterations += iterations
            assert (np.linalg.norm(block[:, c] - expected)
                    <= 1e-12 * np.linalg.norm(expected))
        assert (registry.counter_value("cg_iterations_total")
                == reference_iterations)

    @staticmethod
    def _edge_batch():
        # diag(0, 1, ..., 5) is PSD with null space e_0; CG on a
        # diagonal matrix needs one iteration per distinct eigenvalue.
        matrix = sp.csr_matrix(np.diag(np.arange(6.0)))
        rhs = np.zeros((6, 5))  # column 2 stays all zero
        rhs[1, 0] = 2.0  # one eigenvalue: 1 iteration
        rhs[1:, 1] = [1.0, -2.0, 0.5, 3.0, 1.0]  # five: 5 iterations
        rhs[:, 3] = [1e-9, 1.0, 0.0, 0.0, 0.0, 0.0]  # starts solved
        rhs[:, 4] = 1000.0 * rhs[:, 1]
        start = np.zeros((6, 5))
        start[1, 3] = 1.0  # leaves only the null-space residual 1e-9
        return matrix, rhs, start

    def test_compaction_edge_cases_in_one_batch(self):
        matrix, rhs, start = self._edge_batch()
        with collecting() as registry:
            x = block_conjugate_gradient(matrix, rhs, tol=1e-12, x0=start)
        # Columns 0, 1 and 4 converge after 1, 5 and 5 iterations.
        spent = [_reference_pcg(matrix, rhs[:, c], tol=1e-12)[1]
                 for c in (0, 1, 4)]
        assert spent == [1, 5, 5]
        for c in (0, 1, 4):
            assert (np.linalg.norm(matrix @ x[:, c] - rhs[:, c])
                    <= 1e-12 * np.linalg.norm(rhs[:, c]))
            assert x[0, c] == 0.0
        # The all-zero column stays exactly zero and costs nothing.
        assert np.all(x[:, 2] == 0.0)
        # Column 3 meets zero curvature in its first iteration with its
        # residual inside the sqrt(tol) band: accepted, iterate kept.
        np.testing.assert_array_equal(x[:, 3], start[:, 3])
        assert (registry.counter_value("cg_iterations_total")
                == sum(spent) + 1)

    def test_budget_exhaustion_names_count_and_worst_column(self):
        matrix, rhs, start = self._edge_batch()
        # Two iterations: column 0 converges, column 3 leaves by zero
        # curvature, columns 1 and 4 (the same system scaled by 1000)
        # fail; the larger absolute excess names column 4.
        with collecting() as registry:
            with pytest.raises(ConvergenceError,
                               match=r"on 2 of 5 columns \(worst column 4"):
                block_conjugate_gradient(matrix, rhs, tol=1e-12,
                                         max_iter=2, x0=start)
        assert registry.counter_value(
            "cg_convergence_failures_total") == 1

    def test_zero_curvature_outside_band_raises(self):
        matrix, rhs, start = self._edge_batch()
        rhs[0, 3] = 1.0  # column 3's null-space residual, now large
        with pytest.raises(SolverError, match="curvature"):
            block_conjugate_gradient(matrix, rhs, tol=1e-12, x0=start)

    def test_chunked_solve_matches_unchunked(self, monkeypatch):
        lap, inverse_diag, rhs = _laplacian_system(3000, 5, 3)
        with collecting() as whole_registry:
            whole = block_conjugate_gradient(lap, rhs, tol=1e-10,
                                             preconditioner=inverse_diag)
        # Room for two columns per chunk: chunks of 2, 2 and a lone 1.
        monkeypatch.setattr(solvers, "_CG_WORKING_SET_BYTES",
                            2 * 6 * 8 * 3000)
        with collecting() as registry:
            chunked = block_conjugate_gradient(lap, rhs, tol=1e-10,
                                               preconditioner=inverse_diag)
        assert (np.linalg.norm(chunked - whole)
                <= 1e-12 * np.linalg.norm(whole))
        for c in range(5):
            assert (np.linalg.norm(lap @ chunked[:, c] - rhs[:, c])
                    <= 1e-10 * np.linalg.norm(rhs[:, c]))
        assert (registry.counter_value("cg_iterations_total")
                == whole_registry.counter_value("cg_iterations_total"))
        # A failing chunk names the column by its index in the batch.
        with pytest.raises(ConvergenceError,
                           match=r"of 2 columns \(worst column [23]"):
            block_conjugate_gradient(
                lap, np.column_stack([np.zeros((3000, 2)), rhs[:, :3]]),
                tol=1e-10, max_iter=2, preconditioner=inverse_diag,
            )

    def test_output_independent_of_blas_threads(self):
        # OpenBLAS splits long dot products across threads; the loop
        # must not use BLAS, so one and default threads agree byte for
        # byte (the cluster's serial-parity gate relies on it).
        script = (
            "import hashlib, numpy as np\n"
            "from repro.graphs import random_sparse_graph\n"
            "from repro.linalg import block_conjugate_gradient, laplacian\n"
            "graph = random_sparse_graph(20000, mean_degree=4.0, seed=5,"
            " connected=True)\n"
            "lap = laplacian(graph.adjacency)\n"
            "rhs = np.random.default_rng(5).standard_normal((20000, 4))\n"
            "rhs -= rhs.mean(axis=0)\n"
            "x = block_conjugate_gradient(lap, rhs, tol=1e-10,"
            " preconditioner=1.0 / lap.diagonal())\n"
            "print(hashlib.sha256(x.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", None):
            env = {key: value for key, value in os.environ.items()
                   if key not in ("OPENBLAS_NUM_THREADS",
                                  "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [SRC_DIR, env.get("PYTHONPATH")])
            )
            completed = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=120,
            )
            digests.append(completed.stdout.strip())
        assert digests[0] == digests[1]


class _RecordingExecutor(concurrent.futures.ThreadPoolExecutor):
    """A thread pool that records the helper count of every pool built."""

    built: list[int] = []

    def __init__(self, max_workers=None, *args, **kwargs):
        type(self).built.append(max_workers)
        super().__init__(max_workers, *args, **kwargs)


@pytest.fixture
def recording_executor(monkeypatch):
    _RecordingExecutor.built = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        _RecordingExecutor)
    return _RecordingExecutor.built


class TestColumnGroups:
    """Block CG's column groups depend on n and k only, so the thread
    budget changes neither the bits nor the counters."""

    @staticmethod
    def _solve(monkeypatch, budget, lap, rhs, **kwargs):
        monkeypatch.setattr(solvers, "_thread_budget", lambda: budget)
        with collecting() as registry:
            x = block_conjugate_gradient(lap, rhs, tol=1e-10, **kwargs)
        return x, registry.counter_value("cg_iterations_total")

    # At n = 2,000: k = 50 is two groups of 25, k = 64 three of 21-22,
    # and k = 8 (16,000 entries, under the floor) one group.
    @pytest.mark.parametrize("k, helpers", [(50, [1, 1]), (64, [1, 2]),
                                            (8, [])])
    def test_same_bits_for_every_budget(self, monkeypatch,
                                        recording_executor, k, helpers):
        lap, inverse_diag, rhs = _laplacian_system(2000, k, 4)
        results = [self._solve(monkeypatch, budget, lap, rhs,
                               preconditioner=inverse_diag)
                   for budget in (1, 2, 3)]
        # Budget 1 solves in the caller; budgets 2 and 3 add helpers.
        assert recording_executor == helpers
        x, iterations = results[0]
        for other, other_iterations in results[1:]:
            assert other.tobytes() == x.tobytes()
            assert other_iterations == iterations
        assert (np.linalg.norm(lap @ x - rhs, axis=0)
                <= 1e-10 * np.linalg.norm(rhs, axis=0)).all()

    def test_more_threads_than_cores(self, monkeypatch,
                                     recording_executor):
        # Eight groups of 25 on eight threads, switching as often as the
        # interpreter allows: a group lost or run twice changes the
        # output or the iteration count.
        lap, inverse_diag, rhs = _laplacian_system(2000, 200, 9)
        serial, iterations = self._solve(monkeypatch, 1, lap, rhs,
                                         preconditioner=inverse_diag)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded, threaded_iterations = self._solve(
                monkeypatch, 8, lap, rhs, preconditioner=inverse_diag,
            )
        finally:
            sys.setswitchinterval(interval)
        assert recording_executor == [7]
        assert threaded.tobytes() == serial.tobytes()
        assert threaded_iterations == iterations

    def test_no_helpers_below_the_entry_floor(self, monkeypatch,
                                              recording_executor):
        # 600 rows x 50 columns: 30,000 entries, one group of 50.
        lap, inverse_diag, rhs = _laplacian_system(600, 50, 5)
        x, iterations = self._solve(monkeypatch, 3, lap, rhs,
                                    preconditioner=inverse_diag)
        serial, serial_iterations = self._solve(
            monkeypatch, 1, lap, rhs, preconditioner=inverse_diag,
        )
        assert recording_executor == []
        assert x.tobytes() == serial.tobytes()
        assert iterations == serial_iterations

    def test_no_helpers_when_two_groups_do_not_fit(self, monkeypatch,
                                                   recording_executor):
        lap, inverse_diag, rhs = _laplacian_system(2000, 50, 6)
        threaded, iterations = self._solve(monkeypatch, 3, lap, rhs,
                                           preconditioner=inverse_diag)
        assert recording_executor == [1]
        # Room for 30 columns: still two groups of 25, one at a time.
        monkeypatch.setattr(solvers, "_CG_WORKING_SET_BYTES",
                            30 * 6 * 8 * 2000)
        alone, alone_iterations = self._solve(monkeypatch, 3, lap, rhs,
                                              preconditioner=inverse_diag)
        assert recording_executor == [1]
        assert alone.tobytes() == threaded.tobytes()
        assert alone_iterations == iterations

    @pytest.mark.parametrize("failing", ["both", "second"])
    def test_failure_is_the_same_for_every_budget(self, monkeypatch,
                                                  failing):
        lap, inverse_diag, rhs = _laplacian_system(2000, 50, 7)
        if failing == "second":
            rhs[:, :25] = 0.0  # the first group costs nothing
        messages = []
        for budget in (1, 2, 3):
            monkeypatch.setattr(solvers, "_thread_budget",
                                lambda budget=budget: budget)
            with collecting() as registry:
                with pytest.raises(ConvergenceError) as caught:
                    block_conjugate_gradient(lap, rhs, tol=1e-10,
                                             max_iter=2,
                                             preconditioner=inverse_diag)
            assert registry.counter_value(
                "cg_convergence_failures_total") == 1
            messages.append(str(caught.value))
        assert messages == [messages[0]] * 3
        # The lowest failing group is reported, by batch index.
        worst = int(messages[0].split("worst column ")[1].split(":")[0])
        assert "of 25 columns" in messages[0]
        assert (worst < 25) == (failing == "both")

    def test_output_independent_of_thread_count_across_processes(self):
        # Two groups of 25: the default process runs them on its cores,
        # the one with OPENBLAS_NUM_THREADS=1 one after the other.
        script = (
            "import hashlib, numpy as np\n"
            "from repro.graphs import random_sparse_graph\n"
            "from repro.linalg import block_conjugate_gradient, laplacian\n"
            "graph = random_sparse_graph(3000, mean_degree=4.0, seed=8,"
            " connected=True)\n"
            "lap = laplacian(graph.adjacency)\n"
            "rhs = np.random.default_rng(8).standard_normal((3000, 50))\n"
            "rhs -= rhs.mean(axis=0)\n"
            "x = block_conjugate_gradient(lap, rhs, tol=1e-10,"
            " preconditioner=1.0 / lap.diagonal())\n"
            "print(hashlib.sha256(x.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", None):
            env = {key: value for key, value in os.environ.items()
                   if key not in ("OPENBLAS_NUM_THREADS",
                                  "OMP_NUM_THREADS")}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [SRC_DIR, env.get("PYTHONPATH")])
            )
            completed = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=120,
            )
            digests.append(completed.stdout.strip())
        assert digests[0] == digests[1]


class TestThreadBudget:
    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)

    @pytest.mark.parametrize("openblas, omp, budget", [
        (None, None, 4),
        ("2", "3", 2),  # OpenBLAS's own variable wins
        (None, "3", 3),
        ("abc", "3", 3),  # not an integer: ignored
        ("0", "1", 1),  # not positive: ignored
        ("-2", None, 4),
        ("16", None, 4),  # never above the affinity mask
    ])
    def test_environment_lowers_the_budget(self, monkeypatch, openblas,
                                           omp, budget):
        for name, value in (("OPENBLAS_NUM_THREADS", openblas),
                            ("OMP_NUM_THREADS", omp)):
            if value is not None:
                monkeypatch.setenv(name, value)
        assert solvers._thread_budget() == budget

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        assert solvers._thread_budget() == 3


class TestStoredZeroWeights:
    """An explicitly stored 0.0 is no edge: the solver's components
    follow the weighted entries, as its Laplacian does."""

    @staticmethod
    def _two_triangles():
        rows = [0, 1, 1, 2, 0, 2, 3, 4, 4, 5, 3, 5, 2, 3]
        cols = [1, 0, 2, 1, 2, 0, 4, 3, 5, 4, 5, 3, 3, 2]
        weights = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0,
                   1.5, 1.5, 0.5, 0.5, 1.0, 1.0, 0.0, 0.0]
        return sp.csr_matrix((weights, (rows, cols)), shape=(6, 6))

    @pytest.mark.parametrize("method", ["cg", "direct"])
    def test_solves_match_block_pseudoinverse(self, method):
        adjacency = self._two_triangles()
        assert adjacency.nnz == 14
        pseudo = laplacian_pseudoinverse(adjacency)
        rhs = np.random.default_rng(16).standard_normal((6, 3))
        centred = rhs.copy()
        for block in (slice(0, 3), slice(3, 6)):
            centred[block] -= centred[block].mean(axis=0)
        solver = LaplacianSolver(adjacency, method=method, tol=1e-12)
        assert solver.num_components == 2
        np.testing.assert_allclose(solver.solve_many(rhs),
                                   pseudo @ centred, atol=1e-10)
        np.testing.assert_allclose(solver.solve(rhs[:, 0]),
                                   pseudo @ centred[:, 0], atol=1e-10)
        assert adjacency.nnz == 14


# --- Solver oracle: dense pinv on small hard graphs -------------------


@st.composite
def _hard_graphs(draw):
    """Disjoint paths, even cycles, random blocks and isolated nodes,
    weights from 1e-3 to 1e3, shuffled; returns the adjacency and the
    component of every node."""
    kinds = draw(st.lists(
        st.sampled_from(["isolated", "path", "cycle", "random"]),
        min_size=1, max_size=5,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges, labels, offset = [], [], 0
    for component, kind in enumerate(kinds):
        if kind == "isolated":
            size, local = 1, []
        elif kind == "path":
            size = int(rng.integers(2, 9))
            local = [(i, i + 1) for i in range(size - 1)]
        elif kind == "cycle":  # even length: a bipartite spectrum
            size = 2 * int(rng.integers(2, 5))
            local = [(i, (i + 1) % size) for i in range(size)]
        else:
            size = int(rng.integers(3, 9))
            local = [(i, int(rng.integers(0, i))) for i in range(1, size)]
            local += [(i, j) for i in range(size) for j in range(i)
                      if rng.random() < 0.3]
        edges += [(offset + i, offset + j) for i, j in local]
        labels += [component] * size
        offset += size
    adjacency = np.zeros((offset, offset))
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 10.0 ** rng.uniform(-3, 3)
    order = rng.permutation(offset)
    return (adjacency[np.ix_(order, order)],
            np.asarray(labels)[order])


class TestSolverOracle:
    @pytest.mark.parametrize("method", ["cg", "direct"])
    @settings(max_examples=60, deadline=None)
    @given(graph=_hard_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_solve_many_matches_dense_pinv(self, method, graph, seed):
        adjacency, labels = graph
        n = adjacency.shape[0]
        rhs = np.random.default_rng(seed).standard_normal((n, 3))
        centred = rhs.copy()
        for component in np.unique(labels):
            mask = labels == component
            centred[mask] -= centred[mask].mean(axis=0)
        # rcond well above rounding so numerically-zero eigenvalues of
        # the null space are cut, and well below the 1e-3-weight
        # components' smallest nonzero eigenvalues.
        expected = np.linalg.pinv(dense_laplacian(adjacency),
                                  rcond=1e-11, hermitian=True) @ centred
        # The default tolerance: with weights six decades apart, CG at
        # 1e-12 can stall into a zero-curvature direction.
        solved = LaplacianSolver(adjacency, method=method).solve_many(rhs)
        np.testing.assert_allclose(
            solved, expected, rtol=0.0,
            atol=1e-7 * max(1.0, np.abs(expected).max()),
        )
        for component in np.unique(labels):
            mask = labels == component
            scale = max(1.0, np.abs(solved[mask]).max())
            np.testing.assert_allclose(solved[mask].sum(axis=0), 0.0,
                                       atol=1e-12 * scale * mask.sum())
            if mask.sum() == 1:
                assert np.all(solved[mask] == 0.0)
