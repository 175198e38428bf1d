"""Session ownership for the detection service: leases, fencing, and
the replica catalogue.

:class:`SessionOwnership` is the one place the session tier talks to
:class:`~repro.store.LeaseManager` and
:class:`~repro.store.ReplicaCatalog`. With ``lease_ttl`` set, every
session is protected by a TTL lease with a monotonic fencing token
(:mod:`repro.store.lease`): a heartbeat renews held leases, any
replica adopts a session whose lease expired or was released, and
every WAL append / checkpoint write is guarded so a stale owner's
writes are rejected instead of corrupting the new owner's state.
Without a TTL the lease methods are no-ops (single-writer mode), while
the catalogue still advertises the replica's address.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import TYPE_CHECKING, Any, Callable

from ..observability import add_counter, get_logger
from ..store import (
    FencedWriteError,
    Lease,
    LeaseManager,
    ReplicaCatalog,
    SessionStore,
    StoreError,
)
from .errors import NotOwnerError, bounded_retry_after

if TYPE_CHECKING:
    from .durability import SessionRecord

_logger = get_logger("service.ownership")


def default_replica_id() -> str:
    """``<hostname>-<pid>``: stable for the process's lifetime and
    distinguishable across replicas, so lease records and failover
    logs from different replicas never collide on a generic default."""
    return f"{socket.gethostname()}-{os.getpid()}"


class SessionOwnership:
    """One replica's leases on its sessions and its catalogue entry.

    Args:
        store: the store holding lease and catalogue records.
        replica_id: this replica's identity.
        lease_ttl: lease lifetime in seconds; ``None`` disables leases.
        catalog_ttl: lifetime of this replica's catalogue record.
    """

    def __init__(self, store: SessionStore, replica_id: str,
                 lease_ttl: float | None, catalog_ttl: float):
        self._store = store
        self._replica_id = replica_id
        self._leases = None if lease_ttl is None else \
            LeaseManager(store, replica_id, float(lease_ttl))
        self._catalog = ReplicaCatalog(store, replica_id,
                                       ttl=float(catalog_ttl))
        self._catalog_stop = threading.Event()
        self._catalog_thread: threading.Thread | None = None
        self._heartbeat_stop = threading.Event()
        self._heartbeat: threading.Thread | None = None

    @property
    def replica_id(self) -> str:
        return self._replica_id

    @property
    def lease_ttl(self) -> float | None:
        """The lease lifetime (``None`` when leasing is off)."""
        return None if self._leases is None else self._leases.ttl

    # -- leases --------------------------------------------------------------

    def claim(self, session_id: str, startup: bool = False) -> Lease | None:
        """Take a session's lease, counting cross-replica failover
        adoptions; ``None`` when leasing is off.

        Raises:
            NotOwnerError: a live replica holds the lease (or the CAS
                stayed contended).
        """
        if self._leases is None:
            return None
        previous = self._leases.peek(session_id)
        lease = self._leases.acquire(session_id)
        if lease is None:
            raise self.not_owner(session_id)
        if previous is not None and previous.owner != self._replica_id:
            add_counter("service_failover_adoptions_total")
            _logger.warning(
                "adopted session %s from replica %s (%s, token %d)",
                session_id, previous.owner,
                "startup" if startup else "failover", lease.token,
            )
        return lease

    def ensure(self, record: SessionRecord) -> None:
        """Hold (or take) the session's lease before touching state."""
        if record.lease is None:
            record.lease = self.claim(record.session_id)

    def release(self, lease: Lease | None) -> None:
        """Give a lease up so any replica may adopt its session."""
        if self._leases is not None and lease is not None:
            self._leases.release(lease)

    def forget(self, record: SessionRecord) -> None:
        """Delete the session's lease record (session deletion)."""
        if self._leases is not None:
            self._leases.forget(record.session_id)
        record.lease = None

    # -- fencing -------------------------------------------------------------

    def guard(self, record: SessionRecord):
        """The fencing guard stamped onto every store write."""
        if self._leases is None:
            return None
        lease = record.lease  # the heartbeat may drop it meanwhile
        if lease is not None:
            return self._leases.guard(record.session_id, lease.token)
        message = (f"replica {self._replica_id} holds no lease on "
                   f"session {record.session_id}")

        def rejected() -> None:
            raise FencedWriteError(message)

        return rejected

    @staticmethod
    def token(record: SessionRecord) -> int | None:
        """The fencing token stamped into the session's writes."""
        lease = record.lease
        return None if lease is None else lease.token

    def not_owner(self, session_id: str) -> NotOwnerError:
        """The answer for a session another replica holds."""
        holder = None if self._leases is None else \
            self._leases.peek(session_id)
        if holder is not None:
            return NotOwnerError(
                f"session {session_id} is leased to {holder.owner} "
                f"(token {holder.token})",
                retry_after=bounded_retry_after(
                    max(holder.remaining(), 0.5)
                ),
                owner=holder.owner,
                owner_url=self._owner_url(holder.owner),
            )
        return NotOwnerError(
            f"session {session_id} could not be leased (contention)",
            retry_after=bounded_retry_after(0.5),
        )

    def fenced(self, record: SessionRecord,
               error: FencedWriteError) -> NotOwnerError:
        """Ownership moved mid-request: forget our lease and translate
        the rejection for the client."""
        add_counter("service_fenced_writes_total")
        _logger.warning("session %s: write fenced (%s); dropping "
                        "local state", record.session_id, error)
        record.lease = None
        holder = self.not_owner(record.session_id)
        return NotOwnerError(
            f"session {record.session_id} moved to another replica: "
            f"{error}",
            retry_after=bounded_retry_after(1.0),
            owner=holder.owner, owner_url=holder.owner_url,
        )

    def _owner_url(self, owner: str) -> str | None:
        """The owning replica's advertised address, if catalogued."""
        if owner == self._replica_id:
            return None
        record = self._catalog.lookup(owner)
        return None if record is None else record.url

    def lease_document(self, record: SessionRecord) -> dict | None:
        """The ``lease`` part of a session summary (``None`` when
        leasing is off)."""
        if self._leases is None:
            return None
        lease = record.lease
        if lease is None:
            return {"owner": None, "token": None, "expires_in": None}
        return {"owner": self._replica_id, "token": lease.token,
                "expires_in": round(lease.remaining(), 3)}

    # -- heartbeat -----------------------------------------------------------

    def start_heartbeat(self,
                        records: Callable[[], list[SessionRecord]],
                        lost: Callable[[SessionRecord], None]) -> None:
        """Renew every held lease at a third of the TTL on a daemon
        thread; ``lost`` drops a session whose lease another replica
        took (an in-flight push, if any, is fenced at its next store
        write)."""
        if self._leases is None:
            return
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop, args=(records, lost),
            daemon=True, name="lease-heartbeat",
        )
        self._heartbeat.start()

    def _heartbeat_loop(self, records, lost) -> None:
        interval = max(self._leases.ttl / 3.0, 0.05)
        while not self._heartbeat_stop.wait(interval):
            for record in records():
                lease = record.lease
                if lease is None:
                    continue
                try:
                    renewed = self._leases.renew(lease)
                except StoreError:
                    # Partitioned from the store: keep local state;
                    # write guards fence us if ownership moves meanwhile.
                    continue
                if renewed is not None:
                    record.lease = renewed
                    continue
                add_counter("service_lease_expiries_total")
                _logger.warning(
                    "lost the lease on session %s; dropping local state",
                    record.session_id,
                )
                record.lease = None
                lost(record)

    def stop_heartbeat(self) -> None:
        self._heartbeat_stop.set()
        if self._heartbeat is not None:
            self._heartbeat.join(timeout=2.0)
            self._heartbeat = None

    # -- replica catalogue ---------------------------------------------------

    def advertise(self, url: str) -> None:
        """Publish this replica's address and keep it fresh on a daemon
        thread at a third of the catalogue TTL, so a SIGKILLed replica
        ages out within one TTL while live ones stay listed."""
        self._catalog.advertise(url)
        if self._catalog_thread is None:
            self._catalog_thread = threading.Thread(
                target=self._catalog_loop, daemon=True,
                name="replica-catalog",
            )
            self._catalog_thread.start()
        _logger.info("advertised %s in the replica catalogue", url)

    def _catalog_loop(self) -> None:
        interval = max(self._catalog.ttl / 3.0, 0.05)
        while not self._catalog_stop.wait(interval):
            self._catalog.refresh()

    def stop_catalog(self, withdraw: bool) -> None:
        self._catalog_stop.set()
        if self._catalog_thread is not None:
            self._catalog_thread.join(timeout=2.0)
            self._catalog_thread = None
        if withdraw:
            self._catalog.withdraw()

    def catalogue(self) -> dict[str, Any]:
        """The live replica catalogue, for ``GET /replicas``."""
        return {
            "replica": self._replica_id,
            "url": self._catalog.url,
            "store": self._store.describe(),
            "replicas": [r.describe() for r in self._catalog.live()],
        }
