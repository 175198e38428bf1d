"""Tests for streaming quarantine-and-skip and checkpoint/recovery."""

import shutil
import zipfile

import numpy as np
import pytest

from repro.core.streaming import StreamingCadDetector
from repro.core.thresholds import select_global_threshold
from repro.exceptions import (
    CheckpointError,
    NodeUniverseMismatchError,
    SolverError,
)
from repro.graphs import perturb_weights, random_sparse_graph
from repro.pipeline.serialize import report_to_dict
from repro.resilience import (
    FallbackPolicy,
    FaultInjector,
    corrupt_adjacency,
    flip_bytes,
    read_checkpoint,
    write_checkpoint,
)
from repro.resilience.checkpoint import require_checkpoint_format


@pytest.fixture
def stream_snapshots():
    """Six 40-node connected snapshots over a shared universe."""
    return [random_sparse_graph(40, mean_degree=4.0, seed=s,
                                connected=True)
            for s in range(6)]


def _run(snapshots, **kwargs):
    detector = StreamingCadDetector(anomalies_per_transition=3, warmup=2,
                                    method="exact", **kwargs)
    for snapshot in snapshots:
        detector.push(snapshot)
    return detector


class TestQuarantineAndSkip:
    def test_corrupted_snapshot_is_quarantined(self, stream_snapshots):
        """Acceptance: a stream with one corrupted snapshot completes,
        with the bad snapshot quarantined in the HealthReport."""
        detector = StreamingCadDetector(
            anomalies_per_transition=3, warmup=2,
            sanitize="quarantine", method="exact",
        )
        for position, snapshot in enumerate(stream_snapshots):
            adjacency = snapshot.adjacency
            if position == 3:
                adjacency = corrupt_adjacency(adjacency, kind="nan",
                                              amount=2, seed=9)
            result = detector.push_raw(adjacency, time=position)
            if position == 3:
                assert result is None
        report = detector.finalize()
        assert report.health is not None
        assert len(report.health.quarantined) == 1
        record = report.health.quarantined[0]
        assert record.position == 3
        assert record.time == 3
        assert "non-finite" in record.reason
        # 5 good snapshots -> 4 transitions; stream skipped the bad one.
        assert len(report.transitions) == 4

    def test_push_raw_repairs_by_default(self, stream_snapshots):
        detector = StreamingCadDetector(anomalies_per_transition=3,
                                        warmup=2, method="exact")
        for position, snapshot in enumerate(stream_snapshots[:4]):
            adjacency = snapshot.adjacency
            if position == 1:
                adjacency = corrupt_adjacency(adjacency, kind="negative",
                                              amount=1, seed=2)
            detector.push_raw(adjacency, time=position)
        report = detector.finalize()
        assert report.health is not None
        assert report.health.snapshots_repaired == 1
        assert report.health.repairs_applied > 0
        assert len(report.transitions) == 3  # nothing skipped

    def test_solver_failure_quarantines_snapshot(self, stream_snapshots):
        # Snapshots 0 and 1 embed on solves 0..7; snapshot 2's scoring
        # starts (and, with every backend failing, ends) at solve 8.
        injector = FaultInjector(
            fail_solves=(8,),
            fail_backends=("cg", "cg-retry", "direct", "dense"),
        )
        detector = StreamingCadDetector(
            anomalies_per_transition=3, warmup=2, sanitize="repair",
            method="approx", k=4, seed=0,
            solver=FallbackPolicy(fault_injector=injector),
        )
        for snapshot in stream_snapshots[:5]:
            detector.push(snapshot)
        report = detector.finalize()
        assert report.health is not None
        assert [q.position for q in report.health.quarantined] == [2]
        assert "unscorable" in report.health.quarantined[0].reason
        # snapshots 0, 1, 3, 4 remain -> three scored transitions.
        assert len(report.transitions) == 3

    def test_solver_failure_propagates_without_policy(
            self, stream_snapshots):
        injector = FaultInjector(
            fail_solves=range(0, 8),
            fail_backends=("cg", "cg-retry", "direct", "dense"),
        )
        detector = StreamingCadDetector(
            anomalies_per_transition=3, warmup=2,
            method="approx", k=4, seed=0,
            solver=FallbackPolicy(fault_injector=injector),
        )
        detector.push(stream_snapshots[0])
        with pytest.raises(SolverError):
            detector.push(stream_snapshots[1])

    def test_universe_mismatch_still_raises(self, stream_snapshots):
        detector = StreamingCadDetector(anomalies_per_transition=3,
                                        sanitize="quarantine",
                                        method="exact")
        detector.push(stream_snapshots[0])
        with pytest.raises(NodeUniverseMismatchError):
            detector.push(random_sparse_graph(41, mean_degree=4.0,
                                              seed=0, connected=True))

    def test_bad_sanitize_value_rejected(self):
        from repro.exceptions import DetectionError

        with pytest.raises(DetectionError):
            StreamingCadDetector(sanitize="ignore")


class TestCheckpointRestore:
    def test_mid_stream_round_trip_matches_uninterrupted(
            self, stream_snapshots):
        """Acceptance: checkpoint()/restore() round-trips mid-stream and
        finalize() matches the uninterrupted run exactly."""
        uninterrupted = _run(stream_snapshots).finalize()

        first_half = StreamingCadDetector(anomalies_per_transition=3,
                                          warmup=2, method="exact")
        for snapshot in stream_snapshots[:3]:
            first_half.push(snapshot)
        state = first_half.checkpoint()

        resumed = StreamingCadDetector.restore(state, method="exact")
        assert resumed.num_transitions == 2
        for snapshot in stream_snapshots[3:]:
            resumed.push(snapshot)
        report = resumed.finalize()

        assert report.threshold == uninterrupted.threshold
        for a, b in zip(uninterrupted.transitions, report.transitions):
            assert a.anomalous_nodes == b.anomalous_nodes
            assert a.anomalous_edges == b.anomalous_edges
            np.testing.assert_array_equal(a.scores.edge_scores,
                                          b.scores.edge_scores)

    def test_restore_selects_delta_once(self, tmp_path, monkeypatch):
        """Restoring 20 transitions runs one δ selection, not one per
        transition, and lands on the uninterrupted stream's δ."""
        snapshots = [random_sparse_graph(30, mean_degree=4.0, seed=s,
                                         connected=True)
                     for s in range(21)]
        uninterrupted = _run(snapshots)
        path = tmp_path / "stream.npz"
        uninterrupted.checkpoint(path)
        calls = []

        def counting_select(*args, **kwargs):
            calls.append(1)
            return select_global_threshold(*args, **kwargs)

        monkeypatch.setattr("repro.core.thresholds.select_global_threshold",
                            counting_select)
        resumed = StreamingCadDetector.restore(path, method="exact")
        assert len(calls) == 1
        assert resumed.num_transitions == 20
        assert repr(resumed.current_delta) == \
            repr(uninterrupted.current_delta)
        expected = uninterrupted.finalize()
        report = resumed.finalize()
        assert report.threshold == expected.threshold
        for a, b in zip(expected.transitions, report.transitions):
            np.testing.assert_array_equal(a.scores.node_scores,
                                          b.scores.node_scores)
            assert a.anomalous_nodes == b.anomalous_nodes

    def test_file_round_trip(self, stream_snapshots, tmp_path):
        uninterrupted = _run(stream_snapshots).finalize()
        first_half = StreamingCadDetector(anomalies_per_transition=3,
                                          warmup=2, method="exact")
        for snapshot in stream_snapshots[:4]:
            first_half.push(snapshot)
        path = tmp_path / "stream.npz"
        first_half.checkpoint(path)

        resumed = StreamingCadDetector.restore(path, method="exact")
        for snapshot in stream_snapshots[4:]:
            resumed.push(snapshot)
        report = resumed.finalize()
        assert report.threshold == uninterrupted.threshold
        for a, b in zip(uninterrupted.transitions, report.transitions):
            assert a.anomalous_nodes == b.anomalous_nodes

    def test_checkpoint_preserves_config_and_health(
            self, stream_snapshots):
        detector = StreamingCadDetector(
            anomalies_per_transition=4, warmup=3,
            sanitize="quarantine", method="exact",
        )
        detector.push_raw(stream_snapshots[0].adjacency, time=0)
        detector.push_raw(
            corrupt_adjacency(stream_snapshots[1].adjacency, kind="nan",
                              seed=4),
            time=1,
        )
        state = detector.checkpoint()
        assert state["config"] == {
            "anomalies_per_transition": 4,
            "warmup": 3,
            "sanitize": "quarantine",
            "incremental": False,
        }
        restored = StreamingCadDetector.restore(state, method="exact")
        assert len(restored.health.quarantined) == 1
        assert restored.health.quarantined[0].position == 1

    def test_empty_stream_cannot_checkpoint(self):
        detector = StreamingCadDetector(method="exact")
        with pytest.raises(CheckpointError, match="nothing"):
            detector.checkpoint()

    def test_approx_restore_is_bit_for_bit(self, tmp_path):
        # The seed keys the JL projection, so a restored approximate
        # stream rebuilds the same embeddings and finalizes exactly as
        # the uninterrupted one; no rng state is stored.
        snapshots = [random_sparse_graph(300, mean_degree=4.0, seed=2,
                                         connected=True)]
        for step in range(7):
            snapshots.append(perturb_weights(
                snapshots[-1], relative_noise=0.2, seed=40 + step
            ))
        options = {"method": "approx", "k": 16, "seed": 11}
        uninterrupted = StreamingCadDetector(anomalies_per_transition=3,
                                             **options)
        first_half = StreamingCadDetector(anomalies_per_transition=3,
                                          **options)
        for snapshot in snapshots:
            uninterrupted.push(snapshot)
        for snapshot in snapshots[:4]:
            first_half.push(snapshot)
        path = tmp_path / "approx.npz"
        first_half.checkpoint(path)
        assert "rng_state" not in read_checkpoint(path)
        resumed = StreamingCadDetector.restore(path, **options)
        for snapshot in snapshots[4:]:
            resumed.push(snapshot)
        expected, report = uninterrupted.finalize(), resumed.finalize()
        assert report.threshold == expected.threshold
        for a, b in zip(expected.transitions, report.transitions):
            assert a.anomalous_edges == b.anomalous_edges
            assert a.anomalous_nodes == b.anomalous_nodes
            assert np.array_equal(a.scores.edge_scores,
                                  b.scores.edge_scores)
            assert np.array_equal(a.scores.node_scores,
                                  b.scores.node_scores)


class TestCheckpointFiles:
    def test_unserialisable_time_label_rejected(self, tmp_path):
        snapshot = random_sparse_graph(10, mean_degree=3.0, seed=0,
                                       connected=True)
        detector = StreamingCadDetector(method="exact")
        detector.push(snapshot)
        state = detector.checkpoint()
        state["snapshots"][0]["time"] = object()
        with pytest.raises(CheckpointError, match="JSON"):
            write_checkpoint(state, tmp_path / "bad.npz")

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not an archive at all")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint(tmp_path / "nope.npz")

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez_compressed(path, values=np.arange(3))
        with pytest.raises(CheckpointError, match="not a"):
            read_checkpoint(path)

    def test_bit_flipped_archive_raises_checkpoint_error(self, tmp_path):
        # Flips land in zip records, zlib streams and .npy headers
        # alike; each must surface as the documented CheckpointError.
        snapshots = [random_sparse_graph(20, mean_degree=4.0, seed=s,
                                         connected=True)
                     for s in range(3)]
        source = tmp_path / "stream.npz"
        _run(snapshots).checkpoint(source)
        escaped = []
        for seed in range(40):
            path = tmp_path / f"flipped-{seed}.npz"
            shutil.copyfile(source, path)
            flip_bytes(path, count=32, seed=seed)
            try:
                StreamingCadDetector.restore(path, method="exact")
            except CheckpointError:
                pass
            except Exception as error:
                escaped.append((seed, type(error).__name__))
        assert escaped == []
        # An unclosed header dict makes numpy's tokenizer give up.
        path = tmp_path / "open-header.npz"
        with zipfile.ZipFile(source) as intact, \
                zipfile.ZipFile(path, "w") as broken:
            for name in intact.namelist():
                data = intact.read(name)
                if name == "meta_json.npy":
                    data = data.replace(b"), }", b"),  ", 1)
                broken.writestr(name, data)
        with pytest.raises(CheckpointError):
            StreamingCadDetector.restore(path, method="exact")

    def test_format_marker_validation(self):
        with pytest.raises(CheckpointError):
            require_checkpoint_format({"format": "something-else"})
        with pytest.raises(CheckpointError, match="version"):
            require_checkpoint_format(
                {"format": "repro-streaming-checkpoint", "version": 99}
            )

    def test_malformed_state_rejected(self):
        with pytest.raises(CheckpointError):
            StreamingCadDetector.restore({
                "format": "repro-streaming-checkpoint",
                "version": 1,
            })


class TestHealthSerialization:
    def test_report_json_embeds_health(self, stream_snapshots):
        detector = StreamingCadDetector(
            anomalies_per_transition=3, warmup=2,
            sanitize="quarantine", method="exact",
        )
        for position, snapshot in enumerate(stream_snapshots):
            adjacency = snapshot.adjacency
            if position == 2:
                adjacency = corrupt_adjacency(adjacency, kind="inf",
                                              seed=3)
            detector.push_raw(adjacency, time=position)
        document = report_to_dict(detector.finalize())
        assert document["health"]["quarantined"][0]["position"] == 2
        assert document["health"]["fallbacks_taken"] == 0

    def test_healthy_report_has_no_health_key(self, stream_snapshots):
        document = report_to_dict(_run(stream_snapshots[:4]).finalize())
        assert "health" not in document
