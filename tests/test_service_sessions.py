"""Session lifecycle: eviction, backpressure, concurrency, drain."""

from __future__ import annotations

import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.streaming import StreamingCadDetector
from repro.graphs.snapshot import GraphSnapshot, NodeUniverse
from repro.linalg.factorcache import reset_shared_cache
from repro.pipeline.serialize import snapshot_to_payload
from repro.service import (
    CapacityError,
    NotFoundError,
    SessionManager,
    SessionStateError,
    ShuttingDownError,
)


def random_payloads(n=12, steps=8, seed=5):
    """A deterministic random stream as wire payloads."""
    rng = np.random.default_rng(seed)
    universe = NodeUniverse([f"n{i}" for i in range(n)])
    weights = np.triu(
        (rng.random((n, n)) < 0.35)
        * rng.integers(1, 5, (n, n)), 1
    ).astype(float)
    payloads = []
    for t in range(steps):
        w = weights.copy()
        for _ in range(3):
            i, j = rng.integers(0, n, 2)
            if i != j:
                w[min(i, j), max(i, j)] = float(rng.integers(0, 8))
        weights = w
        snapshot = GraphSnapshot(sp.csr_matrix(w + w.T), universe, time=t)
        payloads.append(snapshot_to_payload(snapshot))
    return payloads


def entries(report_document):
    """Comparable (index, edges, nodes, scores) tuples of a report."""
    return [
        (
            entry["index"],
            sorted((e["source"], e["target"]) for e in entry["edges"]),
            sorted(entry["nodes"]),
            [e["score"] for e in entry["edges"]],
        )
        for entry in report_document["transitions"]
    ]


@pytest.fixture
def payloads():
    return random_payloads()


class TestSessionLifecycle:
    def test_create_push_report_delete(self, tmp_path, payloads):
        manager = SessionManager(checkpoint_dir=tmp_path)
        info = manager.create_session({"seed": 3, "warmup": 2})
        sid = info["session"]
        assert info["resident"] and not info["finalized"]
        for payload in payloads:
            response = manager.push(sid, payload)
            assert response["pushed"] == 1
        report = manager.report(sid)
        assert report["session"] == sid
        assert len(report["transitions"]) == len(payloads) - 1
        final = manager.finalize(sid)
        assert final["finalized"] is True
        with pytest.raises(SessionStateError):
            manager.push(sid, payloads[0])
        manager.delete(sid)
        with pytest.raises(NotFoundError):
            manager.report(sid)

    def test_report_before_any_transition_conflicts(self, tmp_path,
                                                    payloads):
        manager = SessionManager(checkpoint_dir=tmp_path)
        sid = manager.create_session({})["session"]
        with pytest.raises(SessionStateError):
            manager.report(sid)
        manager.push(sid, payloads[0])
        with pytest.raises(SessionStateError):
            manager.report(sid)  # first snapshot scores nothing

    def test_draining_rejects_new_work(self, tmp_path, payloads):
        manager = SessionManager(checkpoint_dir=tmp_path)
        sid = manager.create_session({})["session"]
        manager.begin_drain()
        with pytest.raises(ShuttingDownError):
            manager.create_session({})
        with pytest.raises(ShuttingDownError):
            manager.push(sid, payloads[0])


class TestEviction:
    def test_evict_then_resume_matches_uninterrupted(self, tmp_path,
                                                     payloads):
        config = {"seed": 3, "warmup": 2}
        interrupted = SessionManager(max_sessions=1,
                                     checkpoint_dir=tmp_path / "a")
        sid = interrupted.create_session(config)["session"]
        for payload in payloads[:4]:
            interrupted.push(sid, payload)
        # A second session forces the first out of memory (LRU).
        other = interrupted.create_session({"seed": 99})["session"]
        interrupted.push(other, payloads[0])
        assert not interrupted.session_info(sid)["resident"]
        # Continuing the evicted session resurrects it transparently.
        for payload in payloads[4:]:
            interrupted.push(sid, payload)

        reference = SessionManager(checkpoint_dir=tmp_path / "b")
        ref = reference.create_session(config)["session"]
        for payload in payloads:
            reference.push(ref, payload)

        assert entries(interrupted.report(sid)) == \
            entries(reference.report(ref))

    def test_evicted_session_keeps_metadata(self, tmp_path, payloads):
        manager = SessionManager(max_sessions=1, checkpoint_dir=tmp_path)
        sid = manager.create_session({})["session"]
        for payload in payloads[:3]:
            manager.push(sid, payload)
        manager.create_session({})
        info = manager.session_info(sid)
        assert not info["resident"]
        assert info["has_checkpoint"]
        assert info["pushes"] == 3

    def test_delete_removes_checkpoint_files(self, tmp_path, payloads):
        manager = SessionManager(max_sessions=1, checkpoint_dir=tmp_path)
        sid = manager.create_session({})["session"]
        for payload in payloads[:3]:
            manager.push(sid, payload)
        manager.create_session({})  # evicts sid -> files on disk
        assert list(tmp_path.glob(f"{sid}.*"))
        manager.delete(sid)
        assert not list(tmp_path.glob(f"{sid}.*"))


class TestBackpressure:
    def test_oversized_batch_rejected_up_front(self, tmp_path, payloads):
        manager = SessionManager(checkpoint_dir=tmp_path, max_queue=3)
        sid = manager.create_session({})["session"]
        with pytest.raises(CapacityError) as excinfo:
            manager.push(sid, {"snapshots": payloads[:5]})
        assert excinfo.value.retry_after > 0
        assert excinfo.value.status == 429

    def test_full_queue_yields_429_and_recovers(self, tmp_path, payloads,
                                                monkeypatch):
        manager = SessionManager(checkpoint_dir=tmp_path, max_queue=1)
        first = manager.create_session({})["session"]
        second = manager.create_session({})["session"]

        entered = threading.Event()
        release = threading.Event()
        original = StreamingCadDetector.push

        def slow_push(self, snapshot):
            entered.set()
            assert release.wait(timeout=10)
            return original(self, snapshot)

        monkeypatch.setattr(StreamingCadDetector, "push", slow_push)
        worker = threading.Thread(
            target=manager.push, args=(first, payloads[0]), daemon=True
        )
        worker.start()
        assert entered.wait(timeout=10)
        # The single ingest slot is held by the in-flight push.
        with pytest.raises(CapacityError):
            manager.push(second, payloads[0])
        release.set()
        worker.join(timeout=10)
        assert not worker.is_alive()
        # The slot was released; the same push now succeeds.
        response = manager.push(second, payloads[0])
        assert response["pushed"] == 1


class TestConcurrency:
    def test_concurrent_pushes_to_distinct_sessions(self, tmp_path):
        streams = {
            seed: random_payloads(seed=seed) for seed in (11, 12, 13, 14)
        }
        manager = SessionManager(checkpoint_dir=tmp_path, max_queue=16)
        sessions = {
            seed: manager.create_session({"seed": 3, "warmup": 2})[
                "session"
            ]
            for seed in streams
        }
        errors = []

        def feed(seed):
            try:
                for payload in streams[seed]:
                    manager.push(sessions[seed], payload)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((seed, exc))

        threads = [
            threading.Thread(target=feed, args=(seed,))
            for seed in streams
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors

        for seed, sid in sessions.items():
            reference = SessionManager(
                checkpoint_dir=tmp_path / f"ref{seed}"
            )
            ref = reference.create_session({"seed": 3, "warmup": 2})[
                "session"
            ]
            for payload in streams[seed]:
                reference.push(ref, payload)
            assert entries(manager.report(sid)) == \
                entries(reference.report(ref))


class TestParallelBatches:
    # With a factor cache the delta tier is on by default: the batch
    # must fall back to serial pushes to keep bit-for-bit parity.
    @pytest.mark.parametrize("config", [
        {"seed": 3, "warmup": 2},
        {"seed": 3, "warmup": 2, "factor_cache": True},
        {"seed": 3, "warmup": 2, "method": "approx", "k": 8},
    ], ids=["default", "factor_cache", "approx"])
    def test_parallel_batch_matches_serial(self, tmp_path, payloads,
                                           config, monkeypatch):
        batches = []
        ingest_parallel = SessionManager._ingest_parallel

        def spy(manager, detector, batch):
            batches.append(len(batch))
            return ingest_parallel(manager, detector, batch)

        monkeypatch.setattr(SessionManager, "_ingest_parallel", spy)
        # Cache entries of the serial run must not reach the forked
        # workers, where they would mask a divergence.
        reset_shared_cache()
        try:
            serial = SessionManager(checkpoint_dir=tmp_path / "serial")
            a = serial.create_session(dict(config))["session"]
            for payload in payloads:
                serial.push(a, payload)

            reset_shared_cache()
            parallel = SessionManager(checkpoint_dir=tmp_path / "par",
                                      workers=2, max_queue=16)
            b = parallel.create_session(dict(config))["session"]
            parallel.push(b, payloads[0])
            response = parallel.push(b, {"snapshots": payloads[1:]})
            assert response["pushed"] == len(payloads) - 1
            assert entries(parallel.report(b)) == \
                entries(serial.report(a))
            expected = [] if config.get("factor_cache") else \
                [len(payloads) - 1]
            assert batches == expected
        finally:
            reset_shared_cache()


class TestDrain:
    def test_drain_leaves_resumable_checkpoints(self, tmp_path, payloads):
        manager = SessionManager(checkpoint_dir=tmp_path)
        sid = manager.create_session({"seed": 3, "warmup": 2})["session"]
        for payload in payloads:
            manager.push(sid, payload)
        before = entries(manager.report(sid))
        assert manager.drain() == 1
        assert (tmp_path / f"{sid}.npz").exists()
        assert (tmp_path / f"{sid}.json").exists()

        # A fresh manager over the same directory adopts the session.
        revived = SessionManager(checkpoint_dir=tmp_path)
        info = revived.session_info(sid)
        assert not info["resident"]
        assert entries(revived.report(sid)) == before

    def test_drain_skips_empty_sessions_but_keeps_them(self, tmp_path):
        manager = SessionManager(checkpoint_dir=tmp_path)
        sid = manager.create_session({"warmup": 7})["session"]
        assert manager.drain() == 0
        revived = SessionManager(checkpoint_dir=tmp_path)
        info = revived.session_info(sid)
        assert info["config"]["warmup"] == 7


class TestSanitizeRoute:
    def test_dirty_payload_quarantined_and_stream_continues(
            self, tmp_path, payloads):
        manager = SessionManager(checkpoint_dir=tmp_path)
        sid = manager.create_session({"sanitize": "quarantine"})["session"]
        manager.push(sid, payloads[0])
        dirty = dict(payloads[1])
        dirty["edges"] = [["n0", "n0", 5.0]] + list(dirty["edges"])
        response = manager.push(sid, dirty)
        assert response["quarantined"] == 1
        assert response["quarantined_total"] == 1
        # The stream survives and keeps scoring against the last good
        # snapshot.
        response = manager.push(sid, payloads[2])
        assert response["quarantined"] == 0
        assert response["num_transitions"] == 1
