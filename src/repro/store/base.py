"""The durable-store contract behind the session tier.

A :class:`SessionStore` holds everything a detection session leaves on
disk — streaming checkpoints (npz), JSON sidecars, write-ahead logs,
and lease records — behind a small key/value interface so the service
can run against a local directory today and a shared (object-store
style) prefix tomorrow without the session layer changing:

* **atomic puts** — :meth:`SessionStore.put` never exposes a partially
  written object: backends stage to a temporary file, fsync, and
  rename, so a crash mid-write leaves either the old bytes or the new
  bytes, never a torn object;
* **durable appends** — :meth:`SessionStore.append` backs the
  write-ahead log (fsynced; the WAL format itself tolerates a torn
  trailing line);
* **compare-and-swap** — :meth:`SessionStore.cas` is the primitive the
  lease protocol builds on: concurrent writers race, exactly one wins;
* **fencing guards** — every write accepts a ``guard`` callable run
  immediately before the bytes become visible; the lease layer passes
  a token check there, so a replica that lost its lease mid-write is
  rejected at the last possible moment (see :mod:`repro.store.lease`).

Keys are relative POSIX-style paths (``<session>.npz``,
``leases/<session>.json``); backends map them to their own layout.
"""

from __future__ import annotations

import os
import tempfile
import time
import uuid
from abc import ABC, abstractmethod
from contextlib import contextmanager
from pathlib import Path, PurePosixPath

from ..exceptions import ReproError

#: Seconds after which an abandoned CAS lock file is broken (a crashed
#: process must not wedge every future lease operation).
LOCK_STALE_SECONDS = 5.0

#: How long :meth:`SessionStore.cas` waits for a contended lock before
#: giving up and reporting the swap as lost.
LOCK_WAIT_SECONDS = 5.0


class StoreError(ReproError):
    """Base class for durable-store failures."""


class StoreKeyError(StoreError):
    """The requested key does not exist."""


class StoreCorruptError(StoreError):
    """The object exists but fails integrity checks (bad checksum,
    torn manifest, unreadable archive)."""


class StoreUnavailableError(StoreError):
    """The store is temporarily unreachable (partition, injected
    fault). Retryable: the object's state is unknown but not damaged."""


class FencedWriteError(StoreError):
    """A write guard rejected the caller: its fencing token is stale
    (another replica now owns the session)."""


def check_key(key: str) -> str:
    """Validate and normalise a store key.

    Raises:
        StoreError: on absolute keys, empty keys, or ``..`` segments.
    """
    if not key:
        raise StoreError("store keys must be non-empty")
    pure = PurePosixPath(key)
    if pure.is_absolute() or ".." in pure.parts:
        raise StoreError(
            f"store keys must be relative without '..': {key!r}"
        )
    return str(pure)


def fsync_file(handle) -> None:
    """Flush and fsync one open file handle."""
    handle.flush()
    os.fsync(handle.fileno())


def fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory (persists renames)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_writer(path: str | Path, fsync: bool = True):
    """Write-temp + fsync + rename for an arbitrary destination file.

    Yields a temporary path in the destination's directory; on clean
    exit the temp file is fsynced and atomically renamed over the
    destination, so readers see either the old file or the new one,
    never a partial write. On error the temp file is removed and the
    destination is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.parent / f".tmp-{uuid.uuid4().hex}-{path.name}"
    try:
        yield temp
        if fsync:
            with open(temp, "rb+") as handle:
                fsync_file(handle)
        os.replace(temp, path)
        if fsync:
            fsync_dir(path.parent)
    finally:
        temp.unlink(missing_ok=True)


class SessionStore(ABC):
    """Abstract durable store for session state.

    All mutating methods accept an optional ``guard`` callable that is
    invoked immediately before the write becomes visible; raising from
    the guard (typically :class:`FencedWriteError`) aborts the write
    with the store unchanged (appends: nothing written). Backends must
    make :meth:`put` atomic and :meth:`append` durable.
    """

    #: Human-readable scheme used in ``--store <scheme>:<path>`` specs.
    scheme = "abstract"

    # -- required primitives -------------------------------------------------

    @abstractmethod
    def put(self, key: str, data: bytes, guard=None,
            token: int | None = None) -> None:
        """Atomically create or replace ``key`` with ``data``.

        ``token`` is the writer's fencing token; backends with
        object-level metadata stamp it there (the shared store's
        manifest) so operators can audit which lease wrote what.
        """

    @abstractmethod
    def get(self, key: str) -> bytes:
        """Return the object's bytes.

        Raises:
            StoreKeyError: when the key does not exist.
            StoreCorruptError: when it exists but fails verification.
        """

    @abstractmethod
    def list(self, prefix: str = "") -> list[str]:
        """All keys starting with ``prefix``, sorted."""

    @abstractmethod
    def delete(self, key: str) -> None:
        """Remove a key (idempotent: missing keys are a no-op)."""

    @abstractmethod
    def exists(self, key: str) -> bool:
        """Whether the key currently resolves to an object."""

    @abstractmethod
    def append(self, key: str, data: bytes, guard=None) -> None:
        """Durably append raw bytes to a log object (created on first
        append). Append-class objects trade the checksum manifest for
        append support; their formats must be torn-tail tolerant (the
        fencing token travels inside the appended records instead)."""

    @abstractmethod
    def move(self, key: str, destination: str) -> None:
        """Move an object's raw bytes to another key *without*
        verification — the quarantine path must be able to move
        corrupt objects aside."""

    # -- compare-and-swap ----------------------------------------------------

    def cas(self, key: str, expected: bytes | None,
            new: bytes) -> bool:
        """Atomically replace ``key`` iff its current bytes equal
        ``expected`` (``None`` means *must not exist*).

        Returns:
            ``True`` when the swap happened, ``False`` when the
            current value did not match (or the lock could not be
            taken in time) — the caller re-reads and retries.
        """
        key = check_key(key)
        with self._cas_lock(key) as locked:
            if not locked:
                return False
            try:
                current: bytes | None = self.get(key)
            except StoreKeyError:
                current = None
            except StoreCorruptError:
                # A torn lease record cannot be trusted; any writer
                # may replace it.
                current = None
            if current != expected:
                return False
            self.put(key, new)
            return True

    @abstractmethod
    def _lock_dir(self) -> Path:
        """Directory holding CAS lock files (backend-chosen)."""

    @contextmanager
    def _cas_lock(self, key: str):
        """Serialise CAS on one key via an O_EXCL lock file.

        Stale locks (older than :data:`LOCK_STALE_SECONDS`) left by a
        crashed process are broken. Yields whether the lock was won.
        """
        lock_dir = self._lock_dir()
        lock_dir.mkdir(parents=True, exist_ok=True)
        lock = lock_dir / (key.replace("/", "%2F") + ".lck")
        deadline = time.monotonic() + LOCK_WAIT_SECONDS
        acquired = False
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                acquired = True
                break
            except FileExistsError:
                try:
                    age = time.time() - lock.stat().st_mtime
                    if age > LOCK_STALE_SECONDS:
                        lock.unlink(missing_ok=True)
                        continue
                except OSError:
                    continue  # vanished between open and stat
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.005)
        try:
            yield acquired
        finally:
            if acquired:
                lock.unlink(missing_ok=True)

    # -- conveniences --------------------------------------------------------

    @contextmanager
    def local_copy(self, key: str, suffix: str = ""):
        """Yield a temporary local file holding the object's bytes
        (for path-based readers like ``np.load``)."""
        with tempfile.TemporaryDirectory(prefix="repro-store-") as temp:
            path = Path(temp) / f"object{suffix}"
            path.write_bytes(self.get(key))
            yield path

    def describe(self) -> str:
        """``scheme:location`` string for logs and banners."""
        return f"{self.scheme}:?"
