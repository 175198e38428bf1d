"""Unit tests for the cross-snapshot factorization cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SolverError
from repro.graphs import GraphSnapshot, random_sparse_graph
from repro.linalg import (
    FactorCache,
    commute_time_matrix,
    laplacian_pseudoinverse,
    resolve_factor_cache,
    shared_cache,
    updated_pseudoinverse,
)
from repro.linalg.factorcache import (
    DEFAULT_BUDGET_MB,
    backend_nbytes,
    reset_shared_cache,
)


@pytest.fixture
def graph():
    return random_sparse_graph(40, mean_degree=4.0, seed=5,
                               connected=True)


@pytest.fixture(autouse=True)
def _isolate_shared_cache():
    reset_shared_cache()
    yield
    reset_shared_cache()


def _matrix(n=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n))


class TestFactorCache:
    def test_round_trip(self):
        cache = FactorCache(budget_mb=1)
        backend = _matrix()
        assert cache.put(("a",), backend, nbytes=backend.nbytes)
        entry = cache.get(("a",))
        assert entry is not None
        assert entry.backend is backend
        assert entry.exactness == "cold"

    def test_miss(self):
        cache = FactorCache(budget_mb=1)
        assert cache.get(("missing",)) is None
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_under_budget(self):
        cache = FactorCache(budget_mb=1)
        half = cache.budget_bytes // 2 + 1
        cache.put(("a",), _matrix(seed=1), nbytes=half)
        cache.put(("b",), _matrix(seed=2), nbytes=half)
        # "a" is the LRU entry and must have been evicted.
        assert cache.get(("a",)) is None
        assert cache.get(("b",)) is not None
        assert cache.stats()["evictions"] == 1

    def test_get_refreshes_lru_order(self):
        cache = FactorCache(budget_mb=1)
        third = cache.budget_bytes // 3
        cache.put(("a",), _matrix(seed=1), nbytes=third)
        cache.put(("b",), _matrix(seed=2), nbytes=third)
        cache.get(("a",))  # touch: "b" becomes the LRU entry
        cache.put(("c",), _matrix(seed=3), nbytes=2 * third)
        assert cache.get(("a",)) is not None
        assert cache.get(("b",)) is None

    def test_oversize_rejected(self):
        cache = FactorCache(budget_mb=1)
        assert not cache.put(("big",), _matrix(),
                             nbytes=cache.budget_bytes + 1)
        assert len(cache) == 0

    def test_updated_entries_gated(self):
        cache = FactorCache(budget_mb=1)
        backend = _matrix()
        cache.put(("a",), backend, nbytes=backend.nbytes,
                  exactness="updated")
        assert cache.get(("a",)) is None  # strict callers miss
        entry = cache.get(("a",), allow_updated=True)
        assert entry is not None and entry.exactness == "updated"

    def test_cold_never_downgraded(self):
        cache = FactorCache(budget_mb=1)
        cold = _matrix(seed=1)
        cache.put(("a",), cold, nbytes=cold.nbytes)
        assert not cache.put(("a",), _matrix(seed=2), nbytes=128,
                             exactness="updated")
        assert cache.get(("a",)).backend is cold

    def test_updated_upgraded_to_cold(self):
        cache = FactorCache(budget_mb=1)
        cache.put(("a",), _matrix(seed=1), nbytes=128,
                  exactness="updated")
        cold = _matrix(seed=2)
        assert cache.put(("a",), cold, nbytes=cold.nbytes)
        assert cache.get(("a",)).backend is cold

    def test_corrupt_entry_evicted_and_missed(self):
        cache = FactorCache(budget_mb=1)
        backend = _matrix()
        cache.put(("a",), backend, nbytes=backend.nbytes)
        backend[0, 0] = np.nan  # a buggy caller scribbled on the entry
        assert cache.get(("a",)) is None
        assert cache.stats()["corrupt"] == 1
        assert len(cache) == 0

    def test_rejects_bad_budget_and_exactness(self):
        with pytest.raises(SolverError, match="positive"):
            FactorCache(budget_mb=0)
        cache = FactorCache(budget_mb=1)
        with pytest.raises(SolverError, match="exactness"):
            cache.put(("a",), _matrix(), nbytes=1, exactness="warm")


class TestSharedCache:
    def test_singleton(self):
        assert shared_cache() is shared_cache()

    def test_resize_evicts(self):
        cache = shared_cache(budget_mb=1)
        cache.put(("a",), _matrix(), nbytes=700 * 1024)
        resized = shared_cache(budget_mb=0.5)
        assert resized is cache
        assert len(cache) == 0  # entry no longer fits

    def test_resolve(self):
        assert resolve_factor_cache(None) is None
        assert resolve_factor_cache(False) is None
        assert resolve_factor_cache(True) is shared_cache()
        assert resolve_factor_cache("shared") is shared_cache()
        private = resolve_factor_cache("private")
        assert isinstance(private, FactorCache)
        assert private is not shared_cache()
        assert resolve_factor_cache(private) is private
        with pytest.raises(SolverError, match="factor_cache"):
            resolve_factor_cache("speedy")

    def test_private_default_budget(self):
        private = resolve_factor_cache("private")
        assert private.budget_bytes == DEFAULT_BUDGET_MB * 1024 * 1024


class TestUpdatedPseudoinverse:
    def test_zero_delta_returns_parent(self, graph):
        pinv = laplacian_pseudoinverse(graph.adjacency)
        updated, edits = updated_pseudoinverse(
            graph.adjacency, pinv, graph.adjacency
        )
        assert updated is pinv
        assert edits == 0

    def test_weight_changes_match_recompute(self, graph):
        pinv = laplacian_pseudoinverse(graph.adjacency)
        edited = graph.adjacency.tolil()
        i, j = 0, graph.neighbors(0)[0]
        edited[i, j] = edited[j, i] = float(edited[i, j]) + 1.5
        edited[3, 7] = edited[7, 3] = 0.8  # new within-component edge
        target = GraphSnapshot(edited.tocsr(), graph.universe)
        updated, edits = updated_pseudoinverse(
            graph.adjacency, pinv, target.adjacency
        )
        assert edits == 2
        expected = laplacian_pseudoinverse(target.adjacency)
        np.testing.assert_allclose(updated, expected, atol=1e-8)

    def test_budget_exceeded_returns_none(self, graph):
        pinv = laplacian_pseudoinverse(graph.adjacency)
        edited = graph.adjacency.tolil()
        edited[0, 1] = edited[1, 0] = 5.0
        edited[2, 3] = edited[3, 2] = 5.0
        updated, edits = updated_pseudoinverse(
            graph.adjacency, pinv, edited.tocsr(), delta_budget=1
        )
        assert updated is None
        assert edits == 2

    def test_component_split_returns_none(self):
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        adjacency[1, 2] = adjacency[2, 1] = 1.0
        snapshot = GraphSnapshot(adjacency)
        pinv = laplacian_pseudoinverse(snapshot.adjacency)
        adjacency[1, 2] = adjacency[2, 1] = 0.0
        target = GraphSnapshot(adjacency)
        updated, _edits = updated_pseudoinverse(
            snapshot.adjacency, pinv, target.adjacency
        )
        assert updated is None

    def test_component_merge_updates(self, disconnected_graph):
        pinv = laplacian_pseudoinverse(disconnected_graph.adjacency)
        edited = disconnected_graph.adjacency.tolil()
        edited[1, 2] = edited[2, 1] = 0.9
        target = GraphSnapshot(edited.tocsr(),
                               disconnected_graph.universe)
        updated, edits = updated_pseudoinverse(
            disconnected_graph.adjacency, pinv, target.adjacency
        )
        assert edits == 1
        expected = laplacian_pseudoinverse(target.adjacency)
        np.testing.assert_allclose(updated, expected, atol=1e-10)

    def test_many_merges_in_one_transition(self):
        # Eight isolated pairs stitched into one 16-node path by a
        # single transition: seven Meyer merges, no refactorization.
        adjacency = np.zeros((16, 16))
        for i in range(0, 16, 2):
            adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
        parent = GraphSnapshot(adjacency.copy())
        rng = np.random.default_rng(21)
        for i in range(1, 15, 2):
            adjacency[i, i + 1] = adjacency[i + 1, i] = float(
                rng.uniform(0.5, 2.0)
            )
        target = GraphSnapshot(adjacency)
        updated, edits = updated_pseudoinverse(
            parent.adjacency, laplacian_pseudoinverse(parent.adjacency),
            target.adjacency,
        )
        assert edits == 7
        expected = laplacian_pseudoinverse(target.adjacency)
        np.testing.assert_allclose(updated, expected, atol=1e-8)

    def test_merge_then_edit_inside_merged_component(self):
        # Whichever edit comes first merges the two paths; the other
        # then lands inside the merged component, so the relabelled
        # components must feed a Sherman–Morrison update correctly.
        adjacency = np.zeros((6, 6))
        for i, j in [(0, 1), (1, 2), (3, 4), (4, 5)]:
            adjacency[i, j] = adjacency[j, i] = 1.0
        parent = GraphSnapshot(adjacency.copy())
        adjacency[2, 3] = adjacency[3, 2] = 1.5
        adjacency[0, 5] = adjacency[5, 0] = 0.7
        target = GraphSnapshot(adjacency)
        updated, edits = updated_pseudoinverse(
            parent.adjacency, laplacian_pseudoinverse(parent.adjacency),
            target.adjacency,
        )
        assert edits == 2
        expected = laplacian_pseudoinverse(target.adjacency)
        np.testing.assert_allclose(updated, expected, atol=1e-9)

    def test_shape_mismatch_returns_none(self, graph, disconnected_graph):
        pinv = laplacian_pseudoinverse(graph.adjacency)
        updated, edits = updated_pseudoinverse(
            graph.adjacency, pinv, disconnected_graph.adjacency
        )
        assert updated is None and edits == 0


class TestBackendNbytes:
    def test_dense_with_adjacency(self, graph):
        pinv = laplacian_pseudoinverse(graph.adjacency)
        total = backend_nbytes(pinv, graph.adjacency)
        assert total > pinv.nbytes

    def test_unknown_backend_token_charge(self):
        assert backend_nbytes(object()) == 1024


# -- property: factor-updated commute distances track cold solves --------


@st.composite
def _edge_deltas(draw):
    """A handful of random undirected edge edits on a 12-node graph."""
    count = draw(st.integers(min_value=0, max_value=4))
    edits = []
    for _ in range(count):
        i = draw(st.integers(min_value=0, max_value=11))
        j = draw(st.integers(min_value=0, max_value=11))
        if i == j:
            continue
        weight = draw(st.sampled_from([0.25, 0.7, 1.0, 1.8, 3.0]))
        edits.append((min(i, j), max(i, j), weight))
    return edits


@settings(max_examples=40, deadline=None)
@given(edits=_edge_deltas(), seed=st.integers(min_value=0, max_value=9))
def test_factor_updated_commute_matches_cold(edits, seed):
    """Rank-one-updated L+ reproduces cold-pinvh commute times to 1e-8.

    Covers the zero-delta transition (empty edit list) and
    "sign-flipped" weight moves: every drawn edit *replaces* the
    current weight, so revisiting an existing edge with a smaller
    weight applies a negative Sherman-Morrison delta.
    """
    base = random_sparse_graph(12, mean_degree=3.0, seed=seed,
                               connected=True)
    pinv = laplacian_pseudoinverse(base.adjacency)
    edited = base.adjacency.tolil()
    for i, j, weight in edits:
        edited[i, j] = edited[j, i] = weight
    target = GraphSnapshot(edited.tocsr(), base.universe)
    updated, _edits = updated_pseudoinverse(
        base.adjacency, pinv, target.adjacency
    )
    if updated is None:
        # Structurally un-updatable (an edit split a component):
        # the contract is a clean refusal, never a wrong answer.
        return
    volume = target.volume()
    if volume <= 0:
        return
    diagonal = np.diag(updated)
    commute = volume * (
        diagonal[:, None] + diagonal[None, :] - 2.0 * updated
    )
    expected = commute_time_matrix(target.adjacency)
    np.testing.assert_allclose(commute, expected, atol=1e-8)
