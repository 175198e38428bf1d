"""Unit tests for the commute-time calculator (exact/approx dispatch)."""

import numpy as np
import pytest

from repro import CadDetector, DynamicGraph, ParallelCadDetector
from repro.core import CommuteTimeCalculator
from repro.core.commute import SEED_MODES
from repro.core.streaming import StreamingCadDetector
from repro.exceptions import DetectionError
from repro.graphs import GraphSnapshot, perturb_weights, random_sparse_graph
from repro.linalg import FactorCache, commute_time_matrix
from repro.linalg.factorcache import DEFAULT_DELTA_BUDGET
from repro.observability import collecting


class TestDispatch:
    def test_auto_small_is_exact(self):
        calculator = CommuteTimeCalculator(method="auto", exact_limit=100)
        assert calculator.resolve_method(50) == "exact"
        assert calculator.resolve_method(101) == "approx"

    def test_explicit_methods(self):
        assert CommuteTimeCalculator(
            method="exact"
        ).resolve_method(10**6) == "exact"
        assert CommuteTimeCalculator(
            method="approx"
        ).resolve_method(3) == "approx"

    def test_rejects_unknown(self):
        with pytest.raises(DetectionError):
            CommuteTimeCalculator(method="fancy")


class TestPairwise:
    def test_exact_matches_matrix(self, random_connected_graph):
        calculator = CommuteTimeCalculator(method="exact")
        rows = np.array([0, 1, 2])
        cols = np.array([10, 20, 30])
        values = calculator.pairwise(random_connected_graph, rows, cols)
        expected = commute_time_matrix(random_connected_graph.adjacency)
        np.testing.assert_allclose(values, expected[rows, cols],
                                   atol=1e-8)

    def test_approx_close_to_exact(self, random_connected_graph):
        calculator = CommuteTimeCalculator(method="approx", k=300, seed=0)
        rows = np.array([0, 1, 2, 3, 4])
        cols = np.array([10, 20, 30, 40, 50])
        values = calculator.pairwise(random_connected_graph, rows, cols)
        expected = commute_time_matrix(
            random_connected_graph.adjacency
        )[rows, cols]
        np.testing.assert_allclose(values, expected, rtol=0.5)

    def test_empty_pairs(self, random_connected_graph):
        calculator = CommuteTimeCalculator()
        result = calculator.pairwise(
            random_connected_graph, np.zeros(0), np.zeros(0)
        )
        assert result.size == 0

    def test_edgeless_snapshot_zeros(self):
        snapshot = GraphSnapshot(np.zeros((5, 5)))
        calculator = CommuteTimeCalculator(method="exact")
        values = calculator.pairwise(
            snapshot, np.array([0, 1]), np.array([2, 3])
        )
        assert values.tolist() == [0.0, 0.0]


class TestCaching:
    def test_repeated_snapshot_uses_cache(self, random_connected_graph):
        calculator = CommuteTimeCalculator(method="exact")
        rows = np.array([0])
        cols = np.array([1])
        first = calculator.pairwise(random_connected_graph, rows, cols)
        # Same snapshot object: cache hit must return identical values.
        second = calculator.pairwise(random_connected_graph, rows, cols)
        np.testing.assert_array_equal(first, second)
        assert len(calculator._cache) == 1

    def test_cache_bounded(self, random_connected_graph):
        calculator = CommuteTimeCalculator(method="exact")
        rows, cols = np.array([0]), np.array([1])
        snapshots = [
            GraphSnapshot(random_connected_graph.adjacency)
            for _ in range(4)
        ]
        for snapshot in snapshots:
            calculator.pairwise(snapshot, rows, cols)
        assert len(calculator._cache) <= 2

    def test_approx_deterministic_per_snapshot(self,
                                               random_connected_graph):
        # One calculator advances its RNG per new snapshot, but cached
        # backends make repeated queries on one snapshot consistent.
        calculator = CommuteTimeCalculator(method="approx", k=32, seed=9)
        rows, cols = np.array([0, 2]), np.array([1, 3])
        first = calculator.pairwise(random_connected_graph, rows, cols)
        second = calculator.pairwise(random_connected_graph, rows, cols)
        np.testing.assert_array_equal(first, second)

    def test_content_equal_snapshot_hits_cache(self,
                                               random_connected_graph):
        # Regression: the cache used to key on id(snapshot), so a
        # content-identical snapshot rebuilt after a checkpoint restore
        # (a different object) re-solved from scratch — and a recycled
        # id() could even alias a stale entry. Content keying makes the
        # rebuilt object a hit.
        calculator = CommuteTimeCalculator(method="exact")
        rows, cols = np.array([0]), np.array([1])
        rebuilt = GraphSnapshot(random_connected_graph.adjacency.copy(),
                                random_connected_graph.universe)
        assert rebuilt is not random_connected_graph
        with collecting() as registry:
            first = calculator.pairwise(random_connected_graph, rows,
                                        cols)
            second = calculator.pairwise(rebuilt, rows, cols)
        np.testing.assert_array_equal(first, second)
        assert len(calculator._cache) == 1
        assert registry.counter_value(
            "commute_backend_builds_total", {"method": "exact"}
        ) == 1
        assert registry.counter_value(
            "commute_backend_cache_hits_total"
        ) == 1


class TestFactorCache:
    def test_restored_calculator_hits_shared_cache(
            self, random_connected_graph):
        # A checkpoint-restored session builds a *new* calculator; with
        # the factor cache enabled it must reuse the old session's
        # factorization bit-for-bit instead of re-solving.
        cache = FactorCache(budget_mb=64)
        rows, cols = np.array([0, 4]), np.array([1, 9])
        before = CommuteTimeCalculator(method="exact",
                                       factor_cache=cache)
        first = before.pairwise(random_connected_graph, rows, cols)
        restored = CommuteTimeCalculator(method="exact",
                                         factor_cache=cache)
        with collecting() as registry:
            second = restored.pairwise(random_connected_graph, rows,
                                       cols)
        np.testing.assert_array_equal(first, second)
        assert cache.stats()["hits"] == 1
        assert registry.counter_value(
            "commute_backend_builds_total", {"method": "exact"}
        ) == 0

    def test_identity_hit_is_bit_for_bit(self, random_connected_graph):
        cache = FactorCache(budget_mb=64)
        writer = CommuteTimeCalculator(method="exact",
                                       factor_cache=cache)
        writer.pairwise(random_connected_graph, np.array([0]),
                        np.array([1]))
        digest = random_connected_graph.content_digest()
        entry = cache.get((digest, "exact"))
        reader = CommuteTimeCalculator(method="exact",
                                       factor_cache=cache)
        backend = reader._backend_for(random_connected_graph, "exact")
        assert backend is entry.backend  # the very same array object

    def test_small_delta_uses_rank_one_update(self,
                                              random_connected_graph):
        cache = FactorCache(budget_mb=64)
        calculator = CommuteTimeCalculator(method="exact",
                                           factor_cache=cache,
                                           delta_budget=8)
        rows, cols = np.array([0, 2]), np.array([1, 3])
        calculator.pairwise(random_connected_graph, rows, cols)
        edited = random_connected_graph.adjacency.tolil()
        j = random_connected_graph.neighbors(0)[0]
        edited[0, j] = edited[j, 0] = float(edited[0, j]) + 1.0
        drifted = GraphSnapshot(edited.tocsr(),
                                random_connected_graph.universe)
        with collecting() as registry:
            values = calculator.pairwise(drifted, rows, cols)
        assert registry.counter_value(
            "commute_backend_delta_updates_total"
        ) == 1
        assert registry.counter_value(
            "commute_backend_builds_total", {"method": "exact"}
        ) == 0
        cold = CommuteTimeCalculator(method="exact")
        expected = cold.pairwise(drifted, rows, cols)
        np.testing.assert_allclose(values, expected, atol=1e-8)

    def test_default_delta_budget_with_empty_cache_instance(
            self, random_connected_graph):
        # An empty FactorCache is falsy (it defines __len__); the
        # default budget must still follow the resolved cache.
        calculator = CommuteTimeCalculator(
            method="exact", factor_cache=FactorCache(budget_mb=64)
        )
        assert calculator.delta_budget == DEFAULT_DELTA_BUDGET
        rows, cols = np.array([0]), np.array([1])
        calculator.pairwise(random_connected_graph, rows, cols)
        edited = random_connected_graph.adjacency.tolil()
        edited[0, 5] = edited[5, 0] = 2.0
        drifted = GraphSnapshot(edited.tocsr(),
                                random_connected_graph.universe)
        with collecting() as registry:
            calculator.pairwise(drifted, rows, cols)
        assert registry.counter_value(
            "commute_backend_delta_updates_total"
        ) == 1
        assert calculator.exact_builds == 1

    def test_delta_tier_runs_without_cache(self, random_connected_graph):
        calculator = CommuteTimeCalculator(method="exact", delta_budget=8)
        rows, cols = np.array([0, 2]), np.array([1, 3])
        calculator.pairwise(random_connected_graph, rows, cols)
        edited = random_connected_graph.adjacency.tolil()
        edited[0, 5] = edited[5, 0] = 2.0
        drifted = GraphSnapshot(edited.tocsr(),
                                random_connected_graph.universe)
        values = calculator.pairwise(drifted, rows, cols)
        assert calculator.exact_builds == 1
        expected = CommuteTimeCalculator(method="exact").pairwise(
            drifted, rows, cols
        )
        np.testing.assert_allclose(values, expected, atol=1e-8)

    def test_no_delta_tier_without_cache_by_default(
            self, random_connected_graph):
        calculator = CommuteTimeCalculator(method="exact")
        assert calculator.delta_budget == 0
        assert calculator.spec()["delta_budget"] == 0
        rows, cols = np.array([0]), np.array([1])
        calculator.pairwise(random_connected_graph, rows, cols)
        edited = random_connected_graph.adjacency.tolil()
        edited[0, 5] = edited[5, 0] = 2.0
        calculator.pairwise(
            GraphSnapshot(edited.tocsr(), random_connected_graph.universe),
            rows, cols,
        )
        assert calculator.exact_builds == 2

    def test_zero_delta_budget_disables_updates(
            self, random_connected_graph):
        cache = FactorCache(budget_mb=64)
        calculator = CommuteTimeCalculator(method="exact",
                                           factor_cache=cache,
                                           delta_budget=0)
        rows, cols = np.array([0]), np.array([1])
        calculator.pairwise(random_connected_graph, rows, cols)
        edited = random_connected_graph.adjacency.tolil()
        edited[0, 5] = edited[5, 0] = 2.0
        drifted = GraphSnapshot(edited.tocsr(),
                                random_connected_graph.universe)
        with collecting() as registry:
            calculator.pairwise(drifted, rows, cols)
        assert registry.counter_value(
            "commute_backend_delta_updates_total"
        ) == 0
        assert registry.counter_value(
            "commute_backend_builds_total", {"method": "exact"}
        ) == 1

    def test_corrupt_entry_falls_back_to_cold_solve(
            self, random_connected_graph):
        cache = FactorCache(budget_mb=64)
        writer = CommuteTimeCalculator(method="exact",
                                       factor_cache=cache)
        rows, cols = np.array([0]), np.array([1])
        expected = writer.pairwise(random_connected_graph, rows, cols)
        digest = random_connected_graph.content_digest()
        cache.get((digest, "exact")).backend[0, 0] = np.inf
        reader = CommuteTimeCalculator(method="exact",
                                       factor_cache=cache)
        values = reader.pairwise(random_connected_graph, rows, cols)
        np.testing.assert_allclose(values, expected, atol=1e-8)
        assert cache.stats()["corrupt"] == 1

    def test_approx_cacheable_under_either_seed_mode(
            self, random_connected_graph):
        # The projection is keyed by edge under the root, so an
        # embedding is cacheable whichever (ignored) seed_mode is given.
        cache = FactorCache(budget_mb=64)
        rows, cols = np.array([0]), np.array([1])
        stream = CommuteTimeCalculator(method="approx", k=16, seed=1,
                                       factor_cache=cache,
                                       seed_mode="stream")
        expected = stream.pairwise(random_connected_graph, rows, cols)
        assert len(cache) == 1
        content = CommuteTimeCalculator(method="approx", k=16, seed=1,
                                        factor_cache=cache,
                                        seed_mode="content")
        with collecting() as registry:
            values = content.pairwise(random_connected_graph, rows, cols)
        assert registry.counter_value(
            "commute_backend_builds_total", {"method": "approx"}
        ) == 0
        assert len(cache) == 1
        assert np.array_equal(values, expected)

    def test_exact_and_approx_keys_disjoint(self,
                                            random_connected_graph):
        # A degraded-mode method_override flips the resolved method;
        # the cache key carries the method, so the exact entry can
        # never satisfy the approx request (and vice versa).
        cache = FactorCache(budget_mb=64)
        calculator = CommuteTimeCalculator(method="exact",
                                           factor_cache=cache, k=16,
                                           seed=3, seed_mode="content")
        rows, cols = np.array([0]), np.array([1])
        calculator.pairwise(random_connected_graph, rows, cols)
        calculator.method_override = "approx"
        with collecting() as registry:
            calculator.pairwise(random_connected_graph, rows, cols)
        assert registry.counter_value(
            "commute_backend_builds_total", {"method": "approx"}
        ) == 1
        digest = random_connected_graph.content_digest()
        keys = {key[:2] for key in cache._entries}
        assert (digest, "exact") in keys
        assert any(key[1] == "approx" for key in cache._entries)

    def test_rejects_negative_delta_budget(self):
        with pytest.raises(DetectionError, match="delta_budget"):
            CommuteTimeCalculator(method="exact", delta_budget=-1)


def _approx_snapshots() -> list[GraphSnapshot]:
    snapshots = [random_sparse_graph(60, mean_degree=4.0, seed=3,
                                     connected=True)]
    for step in range(4):
        snapshots.append(perturb_weights(snapshots[-1], relative_noise=0.2,
                                         seed=10 + step))
    return snapshots


def _assert_scores_equal(first, second) -> None:
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.edge_scores, b.edge_scores)
        assert np.array_equal(a.node_scores, b.node_scores)


class TestSeedModeCompatibility:
    """``seed_mode`` is validated, then ignored: both values select the
    one edge-keyed projection."""

    OPTIONS = {"method": "approx", "k": 8, "seed": 5}

    def test_batch_modes_and_engines_score_identically(self):
        graph = DynamicGraph(_approx_snapshots())
        runs = [
            CadDetector(seed_mode=mode, **self.OPTIONS).score_sequence(graph)
            for mode in SEED_MODES
        ] + [
            ParallelCadDetector(
                workers=2, shard_by="transition", seed_mode=mode,
                **self.OPTIONS,
            ).score_sequence(graph)
            for mode in SEED_MODES
        ]
        for run in runs[1:]:
            _assert_scores_equal(runs[0], run)

    def test_stream_modes_finalize_identically(self):
        reports = []
        for mode in SEED_MODES:
            stream = StreamingCadDetector(anomalies_per_transition=2,
                                          warmup=1, seed_mode=mode,
                                          **self.OPTIONS)
            for snapshot in _approx_snapshots():
                stream.push(snapshot)
            reports.append(stream.finalize())
        assert reports[0].threshold == reports[1].threshold
        _assert_scores_equal(
            [t.scores for t in reports[0].transitions],
            [t.scores for t in reports[1].transitions],
        )

    @pytest.mark.parametrize("factory", [
        CadDetector, StreamingCadDetector, ParallelCadDetector,
    ])
    def test_unknown_mode_raises(self, factory):
        with pytest.raises(DetectionError, match="seed_mode"):
            factory(seed_mode="dice")

    def test_checkpoint_carrying_rng_state_restores(self):
        # Earlier releases stored the projection rng's state; it is
        # read and ignored.
        snapshots = _approx_snapshots()
        uninterrupted = StreamingCadDetector(anomalies_per_transition=2,
                                             warmup=1, **self.OPTIONS)
        first_half = StreamingCadDetector(anomalies_per_transition=2,
                                          warmup=1, **self.OPTIONS)
        for snapshot in snapshots:
            uninterrupted.push(snapshot)
        for snapshot in snapshots[:2]:
            first_half.push(snapshot)
        state = first_half.checkpoint()
        state["rng_state"] = np.random.default_rng(0).bit_generator.state
        resumed = StreamingCadDetector.restore(state, **self.OPTIONS)
        for snapshot in snapshots[2:]:
            resumed.push(snapshot)
        expected, report = uninterrupted.finalize(), resumed.finalize()
        assert report.threshold == expected.threshold
        _assert_scores_equal([t.scores for t in expected.transitions],
                             [t.scores for t in report.transitions])
