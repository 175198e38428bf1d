"""Unit tests for the approximate commute-time embedding."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.exceptions import EmbeddingError
from repro.linalg import (
    CommuteTimeEmbedding,
    commute_time_matrix,
    dense_laplacian,
    incidence_factors,
    suggest_embedding_dimension,
)
from repro.linalg import embedding as embedding_module
from repro.linalg.embedding import edge_signs

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


class TestEmbeddingAccuracy:
    def test_high_k_small_error(self, random_connected_graph):
        adjacency = random_connected_graph.adjacency
        exact = commute_time_matrix(adjacency)
        embedding = CommuteTimeEmbedding(adjacency, k=400, seed=0)
        approx = embedding.commute_time_matrix()
        iu = np.triu_indices(adjacency.shape[0], k=1)
        relative = np.abs(approx[iu] - exact[iu]) / exact[iu]
        assert np.median(relative) < 0.15

    def test_error_decreases_with_k(self, random_connected_graph):
        adjacency = random_connected_graph.adjacency
        exact = commute_time_matrix(adjacency)
        iu = np.triu_indices(adjacency.shape[0], k=1)

        def median_error(k: int) -> float:
            approx = CommuteTimeEmbedding(
                adjacency, k=k, seed=1
            ).commute_time_matrix()
            return float(np.median(np.abs(approx[iu] - exact[iu])
                                   / exact[iu]))

        assert median_error(256) < median_error(8)

    @pytest.mark.parametrize("solver", ["cg", "direct"])
    def test_solver_backends_agree(self, random_connected_graph, solver):
        adjacency = random_connected_graph.adjacency
        embedding = CommuteTimeEmbedding(
            adjacency, k=64, seed=3, solver=solver
        )
        exact = commute_time_matrix(adjacency)
        approx = embedding.commute_time_matrix()
        iu = np.triu_indices(adjacency.shape[0], k=1)
        relative = np.abs(approx[iu] - exact[iu]) / exact[iu]
        assert np.median(relative) < 0.35


class TestEmbeddingApi:
    def test_points_shape(self, random_connected_graph):
        embedding = CommuteTimeEmbedding(
            random_connected_graph.adjacency, k=17, seed=0
        )
        assert embedding.points.shape == (
            random_connected_graph.num_nodes, 17,
        )
        assert embedding.k == 17

    def test_pair_query_matches_matrix(self, random_connected_graph):
        embedding = CommuteTimeEmbedding(
            random_connected_graph.adjacency, k=32, seed=0
        )
        matrix = embedding.commute_time_matrix()
        rows = np.array([0, 5])
        cols = np.array([9, 12])
        np.testing.assert_allclose(
            embedding.commute_times(rows, cols),
            matrix[rows, cols], atol=1e-8,
        )

    def test_deterministic_with_seed(self, random_connected_graph):
        a = CommuteTimeEmbedding(random_connected_graph.adjacency,
                                 k=16, seed=5).points
        b = CommuteTimeEmbedding(random_connected_graph.adjacency,
                                 k=16, seed=5).points
        np.testing.assert_array_equal(a, b)

    def test_volume_property(self, random_connected_graph):
        embedding = CommuteTimeEmbedding(
            random_connected_graph.adjacency, k=16, seed=0
        )
        assert embedding.volume == pytest.approx(
            random_connected_graph.volume()
        )

    def test_rejects_edgeless(self):
        with pytest.raises(EmbeddingError):
            CommuteTimeEmbedding(np.zeros((4, 4)), k=8)

    def test_chunked_pair_query_is_bit_for_bit(self,
                                                random_connected_graph,
                                                monkeypatch):
        embedding = CommuteTimeEmbedding(
            random_connected_graph.adjacency, k=16, seed=0
        )
        rng = np.random.default_rng(3)
        n = random_connected_graph.num_nodes
        rows, cols = rng.integers(0, n, 500), rng.integers(0, n, 500)
        whole = embedding.commute_times(rows, cols)
        gaps = embedding.points[rows] - embedding.points[cols]
        np.testing.assert_array_equal(
            whole, np.einsum("ij,ij->i", gaps, gaps)
        )
        monkeypatch.setattr(embedding_module, "_PAIR_CHUNK", 7)
        np.testing.assert_array_equal(
            embedding.commute_times(rows, cols), whole
        )

    def test_pair_shape_mismatch(self, random_connected_graph):
        embedding = CommuteTimeEmbedding(
            random_connected_graph.adjacency, k=8, seed=0
        )
        with pytest.raises(EmbeddingError):
            embedding.commute_times(np.array([0, 1]), np.array([1]))


class TestDisconnectedEmbedding:
    def test_matches_block_convention(self, disconnected_graph):
        adjacency = disconnected_graph.adjacency
        exact = commute_time_matrix(adjacency)
        embedding = CommuteTimeEmbedding(adjacency, k=800, seed=2)
        approx = embedding.commute_time_matrix()
        # within-component distances approximate the classical commute
        assert approx[0, 1] == pytest.approx(exact[0, 1], rel=0.3)
        # cross-component values follow the same block convention
        assert approx[0, 2] == pytest.approx(exact[0, 2], rel=0.3)


class TestSuggestDimension:
    def test_grows_with_n(self):
        assert suggest_embedding_dimension(10**6) >= \
            suggest_embedding_dimension(10**2)

    def test_bounds(self):
        assert 16 <= suggest_embedding_dimension(10) <= 200
        assert suggest_embedding_dimension(10**9, epsilon=0.1) == 200

    def test_rejects_bad_epsilon(self):
        with pytest.raises(EmbeddingError):
            suggest_embedding_dimension(100, epsilon=0.0)


def _sketch(adjacency, k: int, root: int) -> np.ndarray:
    incidence, weights = incidence_factors(adjacency)
    return embedding_module._sketch_weighted_incidence(
        incidence, weights, k, root
    )


def _with_leaf(n: int, leaf: int, anchor: int, seed: int) -> np.ndarray:
    """A random graph in which ``leaf`` hangs off ``anchor`` alone."""
    rng = np.random.default_rng(seed)
    adjacency = np.triu(rng.random((n, n)) < 0.3, k=1) * rng.uniform(
        0.5, 2.0, (n, n))
    adjacency[leaf, :] = adjacency[:, leaf] = 0.0
    adjacency[min(leaf, anchor), max(leaf, anchor)] = 2.0
    return adjacency + adjacency.T


#: Signs of five edges at root 0 and k = 70 ("+" is +1): the 64 signs
#: of word 0, then the first six of word 1.
_GOLDEN_SIGNS = {
    (0, 1): (
        "-++-+-+++-+-+-+--+--+-+-++--++-+-+-++---+++++-+-+-+--++----++--+"
        "++----"),
    (2, 7): (
        "--++++-+-+--+-++++--+-------+-+-+-+-++-+-+++-+--+++++-+++-+-++++"
        "+-+--+"),
    (5, 1000): (
        "---+----+++-+++++-+++++---+++-+-+-+-+++-----+++-++-+++-------+--"
        "+-++++"),
    (41, 30000): (
        "+++-+----+--+-++---++-++-++++---++++-+-++-+-+++-++---++--++--++-"
        "------"),
    (123456, 7654321): (
        "++-+-+-+-+-+-----+-+-+-+--+++---+--+---+++-+-+--++++-+++-++-++--"
        "+++++-"),
}


_MASK64 = (1 << 64) - 1


def _splitmix64_reference(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _signs_reference(root: int, i: int, j: int, k: int) -> list[float]:
    """Loop form of edge_signs on Python integers."""
    key = int(np.random.SeedSequence(root).generate_state(1, np.uint64)[0])
    base = _splitmix64_reference(((i << 32) | j) ^ key)
    words = [_splitmix64_reference((base + b) & _MASK64)
             for b in range(-(-k // 64))]
    return [1.0 if words[d // 64] >> (d % 64) & 1 else -1.0
            for d in range(k)]


class TestEdgeKeyedProjection:
    @pytest.mark.parametrize("root", [0, 7, 2**63 - 1, 2**64 - 5])
    def test_matches_scalar_reference(self, root):
        edges = np.array([(0, 1), (2, 7), (5, 1000), (41, 30000),
                          (123456, 7654321), (2**31, 2**32 - 1)])
        signs = edge_signs(root, edges, 130)
        for row, (i, j) in zip(signs, edges):
            assert row.tolist() == _signs_reference(root, int(i), int(j),
                                                    130)

    def test_edge_column_same_in_every_snapshot(self):
        # Node 29 is a leaf on edge (10, 29) in both graphs, so its
        # sketch column is -sqrt(w) times that edge's column of Q,
        # whatever else the graphs hold and wherever the edge sits in
        # their edge lists.
        first = _with_leaf(30, leaf=29, anchor=10, seed=1)
        second = _with_leaf(30, leaf=29, anchor=10, seed=2)
        assert not np.array_equal(first, second)
        for root in (0, 5):
            a, b = _sketch(first, 24, root), _sketch(second, 24, root)
            np.testing.assert_array_equal(a[:, 29], b[:, 29])
            expected = -np.sqrt(2.0) / np.sqrt(24) * edge_signs(
                root, np.array([[10, 29]]), 24)[0]
            np.testing.assert_allclose(a[:, 29], expected, rtol=1e-15)

    def test_roots_agree_on_about_half_the_signs(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 10**6, 500)
        edges = np.stack([rows, rows + rng.integers(1, 10**6, 500)], 1)
        first, second = edge_signs(0, edges, 64), edge_signs(1, edges, 64)
        assert 0.47 < np.mean(first == second) < 0.53
        assert abs(first.mean()) < 0.03

    def test_golden_signs(self):
        edges = np.array(list(_GOLDEN_SIGNS))
        signs = edge_signs(0, edges, 70)
        for row, expected in zip(signs, _GOLDEN_SIGNS.values()):
            assert "".join("+" if v > 0 else "-" for v in row) == expected

    def test_points_independent_of_process(self):
        # Another hash seed and one thread must rebuild the same bits.
        script = (
            "import hashlib, numpy as np\n"
            "from repro.linalg import CommuteTimeEmbedding\n"
            "rng = np.random.default_rng(4)\n"
            "a = np.triu(rng.random((12, 12)) < 0.4, 1) * rng.uniform("
            "0.1, 10.0, (12, 12))\n"
            "points = CommuteTimeEmbedding(a + a.T, k=70, seed=9).points\n"
            "print(hashlib.sha256(points.tobytes()).hexdigest())\n"
        )
        rng = np.random.default_rng(4)
        adjacency = np.triu(rng.random((12, 12)) < 0.4, 1) * rng.uniform(
            0.1, 10.0, (12, 12))
        points = CommuteTimeEmbedding(adjacency + adjacency.T, k=70,
                                      seed=9).points
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        env.update(PYTHONHASHSEED="12345", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC_DIR, env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        )
        assert completed.stdout.strip() == hashlib.sha256(
            points.tobytes()).hexdigest()


@st.composite
def _oracle_graphs(draw):
    """8-60 nodes in up to four blocks of random edges plus isolated
    nodes, weights from 1e-3 to 1e3, at least one edge."""
    n = draw(st.integers(8, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, draw(st.integers(1, 4)), n)
    labels[:draw(st.integers(0, n // 4))] = -1  # isolated nodes
    rows, cols = np.triu_indices(n, k=1)
    eligible = (labels[rows] == labels[cols]) & (labels[rows] >= 0)
    keep = eligible & (rng.random(rows.size) < draw(st.floats(0.02, 0.5)))
    if not keep.any():
        keep[np.flatnonzero(eligible)[0]] = True
    weights = 10.0 ** rng.uniform(-3, 3, int(keep.sum()))
    upper = sp.csr_matrix((weights, (rows[keep], cols[keep])),
                          shape=(n, n))
    return (upper + upper.T).toarray()


class TestJlOracle:
    @settings(max_examples=30, deadline=None)
    @given(adjacency=_oracle_graphs())
    def test_within_jl_epsilon_of_dense_pinv(self, adjacency):
        # Khoa & Chawla's bound at k = 50, pooled over eight roots: a
        # graph with two or three edges gives every pair nearly the
        # same error under any one root.
        n, k = adjacency.shape[0], 50
        pinv = np.linalg.pinv(dense_laplacian(adjacency), rcond=1e-11,
                              hermitian=True)
        diagonal = np.diag(pinv)
        rows, cols = np.triu_indices(n, k=1)
        exact = adjacency.sum() * (diagonal[rows] + diagonal[cols]
                                   - 2.0 * pinv[rows, cols])
        valid = exact > 0  # estimate_embedding_error's convention
        errors = []
        for root in range(8):
            approx = CommuteTimeEmbedding(adjacency, k=k, seed=root)
            values = approx.commute_times(rows[valid], cols[valid])
            errors.append(np.abs(values - exact[valid]) / exact[valid])
        epsilon = np.sqrt(4.0 * np.log(n) / k)
        assert np.median(np.concatenate(errors)) <= epsilon
