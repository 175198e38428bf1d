"""repro.store — pluggable durable storage for the session tier.

The :class:`SessionStore` interface decouples the detection service
from where its state lives:

* :class:`LocalDirStore` — one directory, one file per key;
  byte-compatible with the pre-store checkpoint layout (``local:<dir>``).
* :class:`SharedStore` — a shared-filesystem prefix standing in for an
  object store: immutable generation files, checksum manifests,
  crash-consistent updates, shared by many replicas (``shared:<dir>``).

:mod:`repro.store.lease` adds session ownership on top: TTL leases
renewed by heartbeat, adopted on expiry, and enforced by monotonic
fencing tokens checked at every write. See ``docs/distribution.md``.
"""

from .base import (
    FencedWriteError,
    SessionStore,
    StoreCorruptError,
    StoreError,
    StoreKeyError,
    StoreUnavailableError,
    atomic_writer,
)
from .catalog import ReplicaCatalog, ReplicaRecord, replica_key
from .lease import Lease, LeaseManager, LeaseRecord, lease_key
from .local import LocalDirStore
from .shared import SharedStore

#: Store spec schemes accepted by :func:`resolve_store`.
STORE_SCHEMES = ("local", "shared")


def resolve_store(spec: "str | SessionStore") -> SessionStore:
    """Build a store from a ``<scheme>:<path>`` spec string.

    ``local:<dir>`` wraps a plain directory (the default layout);
    ``shared:<dir>`` opens a shared multi-replica prefix. A bare path
    (no scheme) is treated as ``local:`` for convenience. An already
    constructed store passes through unchanged.
    """
    if isinstance(spec, SessionStore):
        return spec
    scheme, separator, location = str(spec).partition(":")
    if not separator:
        scheme, location = "local", str(spec)
    if not location:
        raise StoreError(f"store spec {spec!r} is missing a path")
    if scheme == "local":
        return LocalDirStore(location)
    if scheme == "shared":
        return SharedStore(location)
    raise StoreError(
        f"unknown store scheme {scheme!r} (expected one of "
        f"{STORE_SCHEMES})"
    )


__all__ = [
    "FencedWriteError",
    "Lease",
    "LeaseManager",
    "LeaseRecord",
    "LocalDirStore",
    "ReplicaCatalog",
    "ReplicaRecord",
    "STORE_SCHEMES",
    "SessionStore",
    "SharedStore",
    "StoreCorruptError",
    "StoreError",
    "StoreKeyError",
    "StoreUnavailableError",
    "atomic_writer",
    "lease_key",
    "replica_key",
    "resolve_store",
]
