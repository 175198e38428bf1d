"""The session write-ahead log: format roundtrips, torn-tail
tolerance, compaction, replay-to-exact-state after a hard kill, and
the checkpoint quarantine rules at adoption."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.resilience.chaos import flip_bytes, truncate_tail
from repro.service import SessionManager, SessionWal
from repro.store import LocalDirStore

from .test_service_sessions import entries, random_payloads


@pytest.fixture
def payloads():
    return random_payloads()


class TestWalFormat:
    def test_roundtrip(self, tmp_path, payloads):
        wal = SessionWal(LocalDirStore(tmp_path), "abc.wal")
        wal.append_create("abc", {"seed": 3})
        last = wal.append_snapshots(payloads[:3], start_seq=0)
        assert last == 3
        contents = wal.read()
        assert contents.valid
        assert contents.session_id == "abc"
        assert contents.config == {"seed": 3}
        assert contents.compacted_through == 0
        assert [seq for seq, _, _ in contents.entries] == [1, 2, 3]
        assert contents.entries[0][1] == payloads[0]
        assert not contents.truncated
        assert contents.corrupt_lines == 0

    def test_degraded_flag_roundtrips(self, tmp_path, payloads):
        wal = SessionWal(LocalDirStore(tmp_path), "abc.wal")
        wal.append_create("abc", {})
        wal.append_snapshots(payloads[:1], start_seq=0)
        wal.append_snapshots(payloads[1:2], start_seq=1, degraded=True)
        flags = [degraded for _, _, degraded in wal.read().entries]
        assert flags == [False, True]

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path, payloads):
        wal = SessionWal(LocalDirStore(tmp_path), "abc.wal")
        wal.append_create("abc", {})
        wal.append_snapshots(payloads[:3], start_seq=0)
        # Tear the last line mid-record.
        truncate_tail(tmp_path / "abc.wal", 10)
        contents = wal.read()
        assert contents.valid
        assert contents.truncated
        assert [seq for seq, _, _ in contents.entries] == [1, 2]

    def test_corrupt_middle_line_counted(self, tmp_path, payloads):
        wal = SessionWal(LocalDirStore(tmp_path), "abc.wal")
        wal.append_create("abc", {})
        wal.append_snapshots(payloads[:2], start_seq=0)
        path = tmp_path / "abc.wal"
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"{garbage"
        path.write_bytes(b"\n".join(lines))
        contents = wal.read()
        assert contents.valid
        assert contents.corrupt_lines == 1
        assert [seq for seq, _, _ in contents.entries] == [2]

    def test_compaction_filters_entries(self, tmp_path, payloads):
        wal = SessionWal(LocalDirStore(tmp_path), "abc.wal")
        wal.append_create("abc", {"seed": 1})
        wal.append_snapshots(payloads[:4], start_seq=0)
        wal.compact("abc", {"seed": 1}, through_seq=4)
        wal.append_snapshots(payloads[4:6], start_seq=4)
        contents = wal.read()
        assert contents.compacted_through == 4
        assert [seq for seq, _, _ in contents.entries] == [5, 6]

    def test_missing_file_reads_empty(self, tmp_path):
        contents = SessionWal(LocalDirStore(tmp_path), "nothing.wal").read()
        assert not contents.valid
        assert contents.entries == []


class TestHardKillReplay:
    """A manager that vanishes without drain() — the in-process stand
    - -in for SIGKILL/OOM — must replay to the exact pre-crash state."""

    def test_orphan_wal_rebuilds_exact_state(self, tmp_path, payloads):
        undisturbed = SessionManager(checkpoint_dir=tmp_path / "ref")
        sid_ref = undisturbed.create_session({"seed": 3})["session"]
        for payload in payloads:
            undisturbed.push(sid_ref, payload)
        expected = entries(undisturbed.report(sid_ref))

        crashed = SessionManager(checkpoint_dir=tmp_path / "crash")
        sid = crashed.create_session({"seed": 3})["session"]
        for payload in payloads[:5]:
            crashed.push(sid, payload)
        # No drain(), no checkpoint: the WAL is the only artifact a
        # SIGKILL would leave behind.
        del crashed
        revived = SessionManager(checkpoint_dir=tmp_path / "crash")
        info = revived.session_info(sid)
        assert info["pushes"] == 0  # replay is lazy, on first touch
        for payload in payloads[5:]:
            revived.push(sid, payload)
        assert entries(revived.report(sid)) == expected
        assert revived.session_info(sid)["pushes"] == len(payloads)

    def test_checkpoint_plus_wal_tail_replays(self, tmp_path, payloads):
        manager = SessionManager(checkpoint_dir=tmp_path)
        sid = manager.create_session({"seed": 3})["session"]
        for payload in payloads[:4]:
            manager.push(sid, payload)
        manager.drain()  # npz + sidecar + compacted WAL
        manager = SessionManager(checkpoint_dir=tmp_path)
        for payload in payloads[4:]:
            manager.push(sid, payload)  # these live only in the WAL
        expected = entries(manager.report(sid))
        del manager  # hard kill: WAL tail never compacted
        revived = SessionManager(checkpoint_dir=tmp_path)
        assert entries(revived.report(sid)) == expected

    def test_wal_disabled_keeps_graceful_semantics(self, tmp_path,
                                                   payloads):
        manager = SessionManager(checkpoint_dir=tmp_path, wal=False)
        sid = manager.create_session({"seed": 3})["session"]
        for payload in payloads:
            manager.push(sid, payload)
        assert not list(Path(tmp_path).glob("*.wal"))
        manager.drain()
        revived = SessionManager(checkpoint_dir=tmp_path, wal=False)
        assert len(entries(revived.report(sid))) == len(payloads) - 1

    def test_compaction_threshold_folds_wal(self, tmp_path, payloads):
        manager = SessionManager(checkpoint_dir=tmp_path,
                                 wal_compact_every=3)
        sid = manager.create_session({"seed": 3})["session"]
        for payload in payloads[:5]:
            manager.push(sid, payload)
        wal = SessionWal(LocalDirStore(tmp_path), f"{sid}.wal")
        contents = wal.read()
        assert contents.compacted_through >= 3
        assert (tmp_path / f"{sid}.npz").exists()
        # Everything still replays/reports identically after adoption.
        expected = entries(manager.report(sid))
        del manager
        revived = SessionManager(checkpoint_dir=tmp_path)
        assert entries(revived.report(sid)) == expected

    def test_delete_removes_wal(self, tmp_path, payloads):
        manager = SessionManager(checkpoint_dir=tmp_path)
        sid = manager.create_session({})["session"]
        manager.push(sid, payloads[0])
        assert (tmp_path / f"{sid}.wal").exists()
        manager.delete(sid)
        assert not (tmp_path / f"{sid}.wal").exists()


class TestQuarantine:
    """Corrupt startup artifacts are moved aside, never fatal."""

    @staticmethod
    def checkpointed_session(tmp_path, payloads, count=5):
        manager = SessionManager(checkpoint_dir=tmp_path)
        sid = manager.create_session({"seed": 3})["session"]
        for payload in payloads[:count]:
            manager.push(sid, payload)
        manager.drain()
        return sid

    @staticmethod
    def crashed_session(tmp_path, payloads):
        """Five pushes, then a hard kill: the WAL is all that is left."""
        manager = SessionManager(checkpoint_dir=tmp_path)
        sid = manager.create_session({"seed": 3})["session"]
        for payload in payloads[:5]:
            manager.push(sid, payload)
        manager.abandon()
        return sid, tmp_path / f"{sid}.wal"

    def test_truncated_npz_is_quarantined_not_fatal(self, tmp_path,
                                                    payloads):
        sid = self.checkpointed_session(tmp_path, payloads)
        truncate_tail(tmp_path / f"{sid}.npz", 64)
        revived = SessionManager(checkpoint_dir=tmp_path)  # no crash
        assert sid not in {
            info["session"]
            for info in revived.list_sessions()["sessions"]
        }
        quarantined = {p.name for p in
                       (tmp_path / "quarantine").iterdir()}
        assert f"{sid}.npz" in quarantined

    def test_flipped_npz_bytes_quarantined(self, tmp_path, payloads):
        sid = self.checkpointed_session(tmp_path, payloads)
        flip_bytes(tmp_path / f"{sid}.npz", count=32, seed=3)
        SessionManager(checkpoint_dir=tmp_path)
        assert not (tmp_path / f"{sid}.npz").exists()

    def test_corrupt_sidecar_json_quarantined(self, tmp_path, payloads):
        sid = self.checkpointed_session(tmp_path, payloads)
        (tmp_path / f"{sid}.json").write_text("{not json")
        revived = SessionManager(checkpoint_dir=tmp_path)
        assert revived.list_sessions()["sessions"] == []
        quarantined = {p.name for p in
                       (tmp_path / "quarantine").iterdir()}
        assert f"{sid}.json" in quarantined

    @pytest.mark.parametrize("damage", ["garble", "drop"])
    def test_wal_that_lost_an_entry_is_quarantined(self, tmp_path,
                                                   payloads, damage):
        sid, path = self.crashed_session(tmp_path, payloads)
        lines = path.read_bytes().split(b"\n")
        # Line 0 is the header, so line 3 is the entry of seq 3.
        if damage == "garble":
            lines[3] = b"{garbage"
        else:
            del lines[3]
        path.write_bytes(b"\n".join(lines))
        revived = SessionManager(checkpoint_dir=tmp_path)
        assert revived.list_sessions()["sessions"] == []
        assert (tmp_path / "quarantine" / f"{sid}.wal").exists()

    def test_duplicate_entry_and_torn_tail_still_replay(self, tmp_path,
                                                        payloads):
        reference = SessionManager(checkpoint_dir=tmp_path / "ref")
        sid_ref = reference.create_session({"seed": 3})["session"]
        for payload in payloads[:5]:
            reference.push(sid_ref, payload)
        expected = entries(reference.report(sid_ref))
        sid, path = self.crashed_session(tmp_path / "crash", payloads)
        lines = path.read_bytes().split(b"\n")
        # A retried append that half-landed, then a kill mid-append.
        lines.insert(3, lines[3])
        path.write_bytes(b"\n".join(lines) + b'{"kind": "snap')
        revived = SessionManager(checkpoint_dir=tmp_path / "crash")
        assert entries(revived.report(sid)) == expected

    def test_foreign_json_left_alone(self, tmp_path):
        foreign = tmp_path / "notes.json"
        foreign.write_text(json.dumps({"format": "something-else"}))
        SessionManager(checkpoint_dir=tmp_path)
        assert foreign.exists()

    def test_corrupt_npz_with_full_history_wal_recovers(self, tmp_path,
                                                        payloads):
        sid = self.checkpointed_session(tmp_path, payloads)
        expected = entries(
            SessionManager(checkpoint_dir=tmp_path).report(sid)
        )
        # Corrupt the checkpoint, then hand the WAL the full history
        # (as if compaction never happened before the crash).
        truncate_tail(tmp_path / f"{sid}.npz", 64)
        wal = SessionWal(LocalDirStore(tmp_path), f"{sid}.wal")
        wal.delete()
        wal.append_create(sid, {"seed": 3})
        wal.append_snapshots(payloads[:5], start_seq=0)
        revived = SessionManager(checkpoint_dir=tmp_path)
        assert entries(revived.report(sid)) == expected

    def test_headerless_orphan_wal_quarantined(self, tmp_path):
        bad = tmp_path / "feedbeef.wal"
        bad.write_text('{"kind": "snapshot", "seq": 1, "payload": {}}\n')
        revived = SessionManager(checkpoint_dir=tmp_path)
        assert revived.list_sessions()["sessions"] == []
        assert (tmp_path / "quarantine" / "feedbeef.wal").exists()

    def test_orphan_wal_with_watermark_but_no_npz_quarantined(
            self, tmp_path, payloads):
        wal = SessionWal(LocalDirStore(tmp_path), "cafe.wal")
        wal.append_create("cafe", {"seed": 3})
        wal.append_snapshots(payloads[:2], start_seq=0)
        wal.compact("cafe", {"seed": 3}, through_seq=2)
        revived = SessionManager(checkpoint_dir=tmp_path)
        assert revived.list_sessions()["sessions"] == []
        assert (tmp_path / "quarantine" / "cafe.wal").exists()


class TestSigkillSubprocess:
    """The real thing: SIGKILL the serving process mid-stream, restart
    on the same directory, and finish the stream — the report must be
    identical to an undisturbed run."""

    def test_sigkill_then_restart_replays_exactly(self, tmp_path):
        from .test_service_http import Client

        payloads = random_payloads(seed=71)
        checkpoints = tmp_path / "ck"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).parent.parent / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")
        command = [
            sys.executable, "-c",
            "from repro.cli import main; raise SystemExit(main())",
            "serve", "--port", "0",
            "--checkpoint-dir", str(checkpoints),
        ]

        def boot():
            process = subprocess.Popen(
                command, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, env=env,
            )
            line = process.stdout.readline()
            assert "serving on http://" in line, line
            port = int(line.split("http://127.0.0.1:")[1].split()[0])
            return process, Client(port)

        # Undisturbed baseline in-process.
        baseline = SessionManager(checkpoint_dir=tmp_path / "base")
        sid_base = baseline.create_session({"seed": 3})["session"]
        for payload in payloads:
            baseline.push(sid_base, payload)
        expected = entries(baseline.report(sid_base))

        process, client = boot()
        try:
            sid = client.post(
                "/sessions", {"seed": 3}
            )[2]["session"]
            for payload in payloads[:5]:
                assert client.post(
                    f"/sessions/{sid}/snapshots", payload
                )[0] == 200
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        assert process.returncode == -signal.SIGKILL

        process, client = boot()
        try:
            for payload in payloads[5:]:
                assert client.post(
                    f"/sessions/{sid}/snapshots", payload
                )[0] == 200
            status, _, report = client.get(f"/sessions/{sid}/report")
            assert status == 200
            assert entries(report) == expected
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)
