"""Cross-replica failover: leases, fencing, adoption, store faults.

In-process counterpart of the two-replica chaos gates in
``scripts/chaos_smoke.py``: two SessionManagers share one
:class:`~repro.store.SharedStore`, replica A dies (or stalls) and
replica B must adopt its sessions and finish the stream **bit-for-bit**
identical to an undisturbed run, while A's late writes are fenced.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.observability import MetricsRegistry, disable, enable
from repro.resilience import ChaosStore, truncate_tail, write_checkpoint
from repro.resilience.checkpoint import FORMAT as CHECKPOINT_FORMAT
from repro.resilience.checkpoint import VERSION as CHECKPOINT_VERSION
from repro.service import NotOwnerError, SessionManager
from repro.service.wal import SessionWal
from repro.store import LocalDirStore, SharedStore, StoreUnavailableError

from .test_service_sessions import entries, random_payloads

#: Short enough to keep expiry tests fast, long enough that pushes
#: finish well inside one term.
TTL = 0.5

CONFIG = {"seed": 3, "warmup": 2}


@pytest.fixture
def payloads():
    return random_payloads()


@pytest.fixture
def registry():
    registry = enable(MetricsRegistry())
    yield registry
    disable()


#: Every manager :func:`replica` built during the running test.
_REPLICAS: list[SessionManager] = []


@pytest.fixture(autouse=True)
def stop_replicas():
    """Stop every replica a test built, so no lease heartbeat outlives
    the test (a leaked one keeps renewing through its store)."""
    yield
    while _REPLICAS:
        _REPLICAS.pop().abandon()


def baseline(tmp_path, payloads):
    """Entries of an undisturbed single-replica run."""
    manager = SessionManager(checkpoint_dir=tmp_path / "baseline")
    sid = manager.create_session(CONFIG)["session"]
    for payload in payloads:
        manager.push(sid, payload)
    return entries(manager.report(sid))


def replica(tmp_path, name: str, ttl: float = TTL,
            **kwargs) -> SessionManager:
    store = kwargs.pop("store", None) or SharedStore(
        tmp_path / "shared", fsync=False
    )
    manager = SessionManager(store=store, replica_id=name,
                             lease_ttl=ttl, **kwargs)
    _REPLICAS.append(manager)
    return manager


class TestFailover:
    def test_crash_failover_is_bit_for_bit(self, tmp_path, payloads,
                                           registry):
        expected = baseline(tmp_path, payloads)
        a = replica(tmp_path, "replica-a")
        sid = a.create_session(CONFIG)["session"]
        for payload in payloads[:4]:
            a.push(sid, payload)
        # "SIGKILL": A vanishes without checkpointing or releasing.
        a.abandon()
        time.sleep(TTL + 0.2)
        b = replica(tmp_path, "replica-b")
        for payload in payloads[4:]:
            b.push(sid, payload)
        assert entries(b.report(sid)) == expected
        assert registry.counter_value(
            "service_failover_adoptions_total") >= 1

    def test_drain_hands_over_without_ttl_wait(self, tmp_path,
                                               payloads):
        expected = baseline(tmp_path, payloads)
        a = replica(tmp_path, "replica-a")
        sid = a.create_session(CONFIG)["session"]
        for payload in payloads[:4]:
            a.push(sid, payload)
        a.drain()  # checkpoints + releases the lease
        # No sleep: a released lease is adoptable immediately.
        b = replica(tmp_path, "replica-b")
        for payload in payloads[4:]:
            b.push(sid, payload)
        assert entries(b.report(sid)) == expected

    def test_startup_adoption_of_abandoned_sessions(self, tmp_path,
                                                    payloads):
        a = replica(tmp_path, "replica-a")
        sid = a.create_session(CONFIG)["session"]
        for payload in payloads[:4]:
            a.push(sid, payload)
        a.abandon()
        time.sleep(TTL + 0.2)
        b = replica(tmp_path, "replica-b")
        document = b.list_sessions()
        assert [info["session"]
                for info in document["sessions"]] == [sid]
        assert document["replica"] == "replica-b"


class TestOwnership:
    def test_push_on_foreign_live_session_is_not_owner(self, tmp_path,
                                                       payloads):
        a = replica(tmp_path, "replica-a")
        sid = a.create_session(CONFIG)["session"]
        a.push(sid, payloads[0])
        b = replica(tmp_path, "replica-b")
        with pytest.raises(NotOwnerError) as excinfo:
            b.push(sid, payloads[1])
        assert excinfo.value.status == 503
        assert 0.1 <= excinfo.value.retry_after <= 120.0
        # A is undisturbed.
        a.push(sid, payloads[1])

    def test_stale_replica_write_is_fenced(self, tmp_path, payloads,
                                           registry):
        a = replica(tmp_path, "replica-a")
        sid = a.create_session(CONFIG)["session"]
        for payload in payloads[:4]:
            a.push(sid, payload)
        # A pauses (GC pause / network partition): heartbeat stops but
        # the process lives on with its detector in memory.
        a._stop_heartbeat()
        time.sleep(TTL + 0.2)
        b = replica(tmp_path, "replica-b")
        b.push(sid, payloads[4])
        # A wakes up and tries to keep writing: the fencing token is
        # stale, the write must not land.
        with pytest.raises(NotOwnerError):
            a.push(sid, payloads[4])
        assert registry.counter_value(
            "service_fenced_writes_total") >= 1
        # B's stream is unharmed by A's attempt.
        for payload in payloads[5:]:
            b.push(sid, payload)
        assert entries(b.report(sid)) == baseline(tmp_path, payloads)

    def test_leases_off_keeps_single_replica_semantics(self, tmp_path,
                                                       payloads):
        # Without lease_ttl the store tier runs lease-free: restart on
        # the same directory adopts everything unconditionally.
        manager = SessionManager(checkpoint_dir=tmp_path / "solo")
        sid = manager.create_session(CONFIG)["session"]
        for payload in payloads:
            manager.push(sid, payload)
        expected = entries(manager.report(sid))
        manager.drain()
        revived = SessionManager(checkpoint_dir=tmp_path / "solo")
        assert entries(revived.report(sid)) == expected


class TestConcurrentAdoption:
    def test_concurrent_discovery_takes_the_lease_once(
            self, tmp_path, payloads, registry):
        """Two requests racing to adopt one session must not both
        acquire its lease: the second acquisition would bump the token
        and fence the first request's record on its next write."""
        chaos = ChaosStore(SharedStore(tmp_path / "shared",
                                       fsync=False))
        b = replica(tmp_path, "replica-b", store=chaos)
        a = replica(tmp_path, "replica-a")
        sid = a.create_session(CONFIG)["session"]
        for payload in payloads[:4]:
            a.push(sid, payload)
        a.drain()
        # Slow lease writes hold both requests inside adoption at once.
        chaos.write_latency = 0.2
        acquired = registry.counter_value("service_lease_acquires_total")
        barrier = threading.Barrier(2, timeout=10.0)
        sessions = []

        def discover():
            barrier.wait()
            sessions.append(b.session_info(sid)["session"])

        threads = [threading.Thread(target=discover) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert sessions == [sid, sid]
        assert registry.counter_value(
            "service_lease_acquires_total") == acquired + 1
        chaos.write_latency = 0.0
        b.push(sid, payloads[4])
        assert registry.counter_value(
            "service_fenced_writes_total") == 0


class TestSlowStoreHeartbeat:
    def test_slow_lease_writes_do_not_fence_owner(self, tmp_path,
                                                  payloads, registry):
        """Slow (but succeeding) lease renewals near TTL/3 must not
        cost the rightful owner its sessions.

        The heartbeat fires every TTL/3; here every store write eats
        half that interval in latency, so renewals land late — but they
        do land, and the lease must never lapse: no spurious fencing of
        the owner, no adoption by a peer, pushes keep succeeding.
        """
        chaos = ChaosStore(SharedStore(tmp_path / "shared",
                                       fsync=False))
        chaos.write_latency = TTL / 6.0
        a = replica(tmp_path, "replica-a", store=chaos)
        sid = a.create_session(CONFIG)["session"]
        for payload in payloads[:3]:
            a.push(sid, payload)
        # Ride through several full lease terms of slow renewals.
        time.sleep(TTL * 3)
        assert registry.counter_value(
            "service_lease_renewals_total") >= 3
        # A peer on the same (healthy) store sees a live lease: the
        # session must NOT be adoptable.
        b = replica(tmp_path, "replica-b")
        with pytest.raises(NotOwnerError):
            b.push(sid, payloads[3])
        # The owner is unharmed and finishes the stream bit-for-bit.
        for payload in payloads[3:]:
            a.push(sid, payload)
        assert registry.counter_value(
            "service_fenced_writes_total") == 0
        assert registry.counter_value(
            "service_lease_expiries_total") == 0
        assert entries(a.report(sid)) == baseline(tmp_path, payloads)


class TestStoreFaults:
    def test_transient_partition_is_retried(self, tmp_path, payloads,
                                            registry):
        class Flaky(ChaosStore):
            """Fail the first N WAL appends, then recover."""

            def __init__(self, inner, failures):
                super().__init__(inner)
                self.failures = failures

            def append(self, key, data, guard=None):
                if self.failures > 0:
                    self.failures -= 1
                    raise StoreUnavailableError("transient blip")
                super().append(key, data, guard)

        store = Flaky(SharedStore(tmp_path / "shared", fsync=False),
                      failures=2)
        manager = replica(tmp_path, "replica-a", store=store)
        sid = manager.create_session(CONFIG)["session"]
        manager.push(sid, payloads[0])  # append retried, then lands
        assert registry.counter_value("store_write_retries_total") >= 2
        # The WAL holds the entry exactly once despite the retries.
        wal = SessionWal(store=store, key=f"{sid}.wal")
        contents = wal.read()
        assert contents.session_id == sid
        assert [seq for seq, _, _ in contents.entries] == [1]

    def test_hard_partition_surfaces_store_unavailable(self, tmp_path,
                                                       payloads):
        chaos = ChaosStore(SharedStore(tmp_path / "shared",
                                       fsync=False))
        manager = replica(tmp_path, "replica-a", store=chaos)
        sid = manager.create_session(CONFIG)["session"]
        chaos.partition("")  # deny every write
        with pytest.raises(StoreUnavailableError):
            manager.push(sid, payloads[0])
        chaos.heal()
        manager.push(sid, payloads[0])


class TestAtomicSidecars:
    """Satellite of the store tier: checkpoint artifacts are written
    atomically, and a torn sidecar is survivable."""

    def test_interrupted_checkpoint_keeps_previous_archive(
            self, tmp_path, monkeypatch):
        state = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": {}, "universe": [], "num_nodes": 0,
            "snapshots": [], "scored": [], "push_count": 0,
            "health": {}, "rng_state": None,
        }
        path = tmp_path / "ck.npz"
        write_checkpoint(state, path)
        before = path.read_bytes()

        def explode(*args, **kwargs):
            raise OSError("disk full mid-write")

        monkeypatch.setattr(np, "savez_compressed", explode)
        with pytest.raises(OSError):
            write_checkpoint(state, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_truncated_sidecar_with_full_history_wal_recovers(
            self, tmp_path, payloads):
        root = tmp_path / "ck"
        manager = SessionManager(checkpoint_dir=root)
        sid = manager.create_session(CONFIG)["session"]
        for payload in payloads[:5]:
            manager.push(sid, payload)
        manager.drain()
        expected = entries(
            SessionManager(checkpoint_dir=root).report(sid)
        )
        # Tear the sidecar mid-file (what a non-atomic writer would
        # leave after a crash) and hand the WAL the full history.
        truncate_tail(root / f"{sid}.json", 32)
        wal = SessionWal(LocalDirStore(root), f"{sid}.wal")
        wal.delete()
        wal.append_create(sid, CONFIG)
        wal.append_snapshots(payloads[:5], start_seq=0)
        revived = SessionManager(checkpoint_dir=root)
        assert entries(revived.report(sid)) == expected
        assert (root / "quarantine" / f"{sid}.json").exists()
