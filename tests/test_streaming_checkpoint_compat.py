"""Version-1 stream checkpoints written before the stream lifecycle was
shared between CAD and event-score streams still resume exactly; each
stream type's ``restore`` takes overrides of the stored config and
rejects the other type's checkpoints.

``tests/data/v1_checkpoints`` holds artifacts written by that earlier
code from :func:`stream_sequence`:

* ``stream_cad_incremental_v1.npz`` — ``StreamingCadDetector(
  anomalies_per_transition=2, warmup=2, sanitize="quarantine",
  incremental=True, method="exact")`` after ``push_raw`` of the first
  five snapshots, with a NaN-corrupted matrix (quarantined) after the
  third;
* ``stream_lad_v1.npz`` — ``StreamingDetector("lad",
  anomalies_per_transition=2, warmup=2)`` after the first six pushes;
* ``service/`` — a ``SessionManager(wal_compact_every=3)`` directory
  left without a drain after five pushes into a CAD ``incremental``
  session and a ``lad`` session: an npz checkpoint and JSON sidecar at
  push 3, plus two WAL entries beyond it.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.streaming import StreamingCadDetector
from repro.detectors import StreamingDetector
from repro.exceptions import CheckpointError
from repro.graphs.snapshot import GraphSnapshot, NodeUniverse
from repro.pipeline.serialize import snapshot_to_payload
from repro.service import SessionManager

DATA = Path(__file__).parent / "data" / "v1_checkpoints"

CAD_CONFIG = {"method": "exact", "incremental": True,
              "sanitize": "quarantine", "warmup": 2,
              "anomalies_per_transition": 2}
LAD_CONFIG = {"method": "lad", "warmup": 2,
              "anomalies_per_transition": 2, "seed": 4}


def stream_sequence(n=16, steps=10, seed=23, edits=3):
    rng = np.random.default_rng(seed)
    universe = NodeUniverse([f"n{i}" for i in range(n)])
    weights = np.triu(
        (rng.random((n, n)) < 0.4) * rng.integers(1, 5, (n, n)), 1
    ).astype(float)
    snapshots = []
    for t in range(steps):
        weights = weights.copy()
        for _ in range(edits):
            i, j = rng.integers(0, n, 2)
            if i != j:
                weights[min(i, j), max(i, j)] = float(rng.integers(0, 8))
        snapshots.append(GraphSnapshot(sp.csr_matrix(weights + weights.T),
                                       universe, time=f"t{t}"))
    return snapshots


def push_cad(stream, snapshots, start):
    for position, snapshot in enumerate(snapshots):
        stream.push_raw(snapshot.adjacency, time=snapshot.time,
                        universe=snapshot.universe)
        if start + position == 2:
            dense = snapshot.adjacency.toarray()
            dense[0, 1] = np.nan
            stream.push_raw(dense, time="bad")


def result_sets(result):
    return (sorted((u, v) for u, v, _ in result.anomalous_edges),
            sorted(result.anomalous_nodes))


class TestStreamCheckpoints:
    def test_cad_incremental_resumes_to_uninterrupted_report(self):
        snapshots = stream_sequence()
        restored = StreamingCadDetector.restore(
            DATA / "stream_cad_incremental_v1.npz", method="exact"
        )
        assert restored.incremental
        assert restored.sanitize_policy == "quarantine"
        push_cad(restored, snapshots[5:], start=5)
        reference = StreamingCadDetector(
            anomalies_per_transition=2, warmup=2, sanitize="quarantine",
            incremental=True, method="exact",
        )
        push_cad(reference, snapshots, start=0)
        left, right = restored.finalize(), reference.finalize()
        assert left.threshold == pytest.approx(right.threshold,
                                               rel=1e-8)
        assert len(left.transitions) == len(right.transitions) == 9
        for got, expected in zip(left.transitions, right.transitions):
            assert result_sets(got) == result_sets(expected)
            np.testing.assert_allclose(
                got.scores.edge_scores, expected.scores.edge_scores,
                rtol=1e-8, atol=1e-10,
            )
        assert left.health.quarantined == right.health.quarantined

    def test_lad_resumes_bit_for_bit(self):
        snapshots = stream_sequence()
        restored = StreamingDetector.restore(DATA / "stream_lad_v1.npz")
        assert restored.method == "lad"
        for snapshot in snapshots[6:]:
            restored.push(snapshot)
        reference = StreamingDetector("lad", anomalies_per_transition=2,
                                      warmup=2)
        for snapshot in snapshots:
            reference.push(snapshot)
        left, right = restored.finalize(), reference.finalize()
        assert left.threshold == right.threshold
        for got, expected in zip(left.transitions, right.transitions,
                                 strict=True):
            assert np.array_equal(got.scores.node_scores,
                                  expected.scores.node_scores)
            assert got.anomalous_nodes == expected.anomalous_nodes


class TestRestoreOverrides:
    def test_cad_arguments_override_checkpoint_config(self):
        restored = StreamingCadDetector.restore(
            DATA / "stream_cad_incremental_v1.npz", method="exact",
            warmup=4, incremental=False,
        )
        assert not restored.incremental
        assert restored.checkpoint()["config"] == {
            "anomalies_per_transition": 2, "warmup": 4,
            "sanitize": "quarantine", "incremental": False,
        }

    def test_event_arguments_override_checkpoint_config(self):
        restored = StreamingDetector.restore(DATA / "stream_lad_v1.npz",
                                             anomalies_per_transition=3)
        config = restored.checkpoint()["config"]
        assert config["anomalies_per_transition"] == 3
        assert config["method"] == "lad"
        assert config["warmup"] == 2


class TestWrongStreamType:
    def test_cad_restore_rejects_event_stream_checkpoint(self):
        with pytest.raises(CheckpointError, match="'detector-stream'"):
            StreamingCadDetector.restore(DATA / "stream_lad_v1.npz",
                                         method="exact")

    def test_event_restore_rejects_cad_checkpoint(self):
        with pytest.raises(CheckpointError, match="CAD stream"):
            StreamingDetector.restore(
                DATA / "stream_cad_incremental_v1.npz"
            )


def report_rows(document):
    return [
        (entry["index"],
         sorted((e["source"], e["target"]) for e in entry["edges"]),
         sorted(entry["nodes"]),
         [e["score"] for e in entry["edges"]])
        for entry in document["transitions"]
    ]


class TestServiceDirectory:
    @pytest.fixture
    def adopted(self, tmp_path):
        shutil.copytree(DATA / "service", tmp_path / "old")
        return SessionManager(checkpoint_dir=tmp_path / "old")

    def resume_and_compare(self, adopted, tmp_path, config):
        payloads = [snapshot_to_payload(s) for s in stream_sequence()]
        sid = next(
            entry["session"]
            for entry in adopted.list_sessions()["sessions"]
            if entry["config"]["method"] == config["method"]
        )
        for payload in payloads[5:]:
            adopted.push(sid, payload)
        fresh = SessionManager(checkpoint_dir=tmp_path / "fresh")
        reference = fresh.create_session(config)["session"]
        for payload in payloads:
            fresh.push(reference, payload)
        return (report_rows(adopted.report(sid)),
                report_rows(fresh.report(reference)))

    def test_cad_incremental_session_resumes(self, adopted, tmp_path):
        got, expected = self.resume_and_compare(adopted, tmp_path,
                                                CAD_CONFIG)
        assert [row[:3] for row in got] == [row[:3] for row in expected]
        for left, right in zip(got, expected, strict=True):
            np.testing.assert_allclose(left[3], right[3], rtol=1e-8,
                                       atol=1e-10)

    def test_lad_session_resumes_bit_for_bit(self, adopted, tmp_path):
        got, expected = self.resume_and_compare(adopted, tmp_path,
                                                LAD_CONFIG)
        assert got == expected
