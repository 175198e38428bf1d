"""Session durability: checkpoints, sidecars, the write-ahead log,
and quarantine.

:class:`SessionDurability` alone knows a session's layout in its
:class:`~repro.store.SessionStore` — a local directory (byte-compatible
with the pre-store layout) or a shared multi-replica prefix:

* ``<id>.npz`` + ``<id>.json`` — the stream checkpoint and a sidecar
  with the session's configuration, push count and finalized flag,
  written on eviction, drain and WAL compaction, so an evicted session
  is transparently resurrected on its next request;
* ``<id>.wal`` — the write-ahead log (:mod:`repro.service.wal`): every
  accepted snapshot is appended and replayed on adoption, so even a
  SIGKILL/OOM between checkpoints loses nothing that was acknowledged;
* ``quarantine/<key>`` — corrupt artifacts found at adoption, moved
  aside with a logged reason instead of crashing startup.

Every store write of a session goes through one helper that takes the
fencing guard and token from
:class:`~repro.service.ownership.SessionOwnership` and retries
transient :class:`~repro.store.StoreUnavailableError`.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable

from ..core.streaming import StreamingCadDetector
from ..detectors.streaming import StreamingDetector
from ..exceptions import CheckpointError
from ..graphs.snapshot import NodeUniverse
from ..observability import add_counter, get_logger, trace
from ..resilience.checkpoint import read_npz_document
from ..store import Lease, SessionStore, StoreError, StoreUnavailableError
from .ownership import SessionOwnership
from .protocol import SessionConfig, parse_session_config
from .wal import SessionWal, WalContents

_logger = get_logger("service.durability")

#: Either stream flavor a session may run (CAD or a registry detector).
SessionStream = StreamingCadDetector | StreamingDetector

#: Sidecar format marker written next to eviction checkpoints.
SIDECAR_FORMAT = "repro-service-session"
SIDECAR_VERSION = 1

#: Attempts per durable-store write before a transient
#: :class:`~repro.store.StoreUnavailableError` escalates to the caller.
STORE_WRITE_ATTEMPTS = 3

#: Base backoff between store write retries (doubles per attempt).
STORE_RETRY_BACKOFF = 0.05


def build_stream(config: SessionConfig,
                 checkpoint: str | Path | None = None) -> SessionStream:
    """Construct (or restore from ``checkpoint``) a session's stream.

    CAD methods (``exact``/``approx``/``auto``/``cad``) get the
    commute-time stream; every other (registry) method runs behind the
    generic :class:`~repro.detectors.StreamingDetector` wrapper.
    """
    stream = StreamingCadDetector if config.uses_cad else StreamingDetector
    if checkpoint is None:
        return stream(**config.detector_kwargs())
    return stream.restore(checkpoint, **config.detector_kwargs())


class SessionRecord:
    """One session's bookkeeping (detector may be evicted to disk)."""

    __slots__ = (
        "session_id", "config", "lock", "detector", "universe",
        "last_active", "finalized", "pushes", "has_checkpoint",
        "wal", "wal_pending", "breaker_failures", "breaker_until",
        "breaker_trips", "breaker_reason", "degraded_pushes", "lease",
    )

    def __init__(self, session_id: str, config: SessionConfig):
        self.session_id = session_id
        self.config = config
        self.lock = threading.Lock()
        #: The live stream (``None`` until resurrected after eviction).
        self.detector: SessionStream | None = None
        self.universe: NodeUniverse | None = None
        self.last_active = 0
        self.finalized = False
        self.pushes = 0
        self.has_checkpoint = False
        #: Write-ahead log (None when WAL is disabled).
        self.wal: SessionWal | None = None
        #: Snapshot entries appended since the last WAL compaction.
        self.wal_pending = 0
        # Circuit-breaker state: consecutive server-side failures, the
        # monotonic time the breaker stays open until, lifetime trips,
        # and the reason it last tripped.
        self.breaker_failures = 0
        self.breaker_until = 0.0
        self.breaker_trips = 0
        self.breaker_reason = ""
        #: Snapshots this session scored on the shed (approximate)
        #: backend while the manager was degraded.
        self.degraded_pushes = 0
        #: Held ownership lease (None when leasing is disabled or
        #: ownership was released/lost).
        self.lease: Lease | None = None

    @property
    def resident(self) -> bool:
        """Whether the detector currently lives in memory."""
        return self.detector is not None


class SessionDurability:
    """Checkpoints, sidecars and write-ahead logs of a manager's sessions.

    Args:
        store: the durable store holding every session artifact.
        ownership: supplies the fencing guard and token of each write,
            and whether leases are on.
        wal: log every accepted snapshot and replay it on adoption.
        compact_every: compact a session's WAL into its npz checkpoint
            after this many logged snapshots.
    """

    def __init__(self, store: SessionStore, ownership: SessionOwnership,
                 wal: bool, compact_every: int):
        self._store = store
        self._ownership = ownership
        self._wal = bool(wal)
        self._compact_every = max(int(compact_every), 1)

    @staticmethod
    def _keys(session_id: str) -> tuple[str, str, str]:
        """The session's npz, sidecar and WAL keys."""
        return (f"{session_id}.npz", f"{session_id}.json",
                f"{session_id}.wal")

    def _write(self, record: SessionRecord, write: Callable[..., Any]):
        """Run one store write of ``record``'s session as
        ``write(guard, token)``, fenced by its lease and absorbing
        transient unavailability.

        WAL appends are safe to retry: entries are keyed by sequence
        number and replay deduplicates, so an append that half-landed
        before a partition surfaces as at most one duplicate line.
        """
        for attempt in range(STORE_WRITE_ATTEMPTS):
            try:
                return write(self._ownership.guard(record),
                             self._ownership.token(record))
            except StoreUnavailableError:
                if attempt == STORE_WRITE_ATTEMPTS - 1:
                    raise
                add_counter("store_write_retries_total")
                time.sleep(STORE_RETRY_BACKOFF * (2 ** attempt))

    # -- the write-ahead log -------------------------------------------------

    def create(self, record: SessionRecord) -> None:
        """Start a new session's WAL (when logging is on)."""
        if self._wal:
            record.wal = SessionWal(self._store,
                                    self._keys(record.session_id)[2])
            self._start_log(record)

    def _start_log(self, record: SessionRecord) -> None:
        wal = record.wal
        self._write(record, lambda guard, token: wal.append_create(
            record.session_id, record.config.to_document(), guard=guard,
        ))

    def append(self, record: SessionRecord,
               documents: list[dict[str, Any]], degraded: bool) -> None:
        """Log the accepted batch (after ingest, before the push
        counter advances, so seq numbers align with it)."""
        wal = record.wal
        if wal is None:
            return
        if not wal.exists():
            # Sessions adopted from a sidecar written by a pre-WAL
            # process get their log lazily on the first push.
            self._start_log(record)
        self._write(record, lambda guard, token: wal.append_snapshots(
            documents, start_seq=record.pushes, degraded=degraded,
            token=token, guard=guard,
        ))
        record.wal_pending += len(documents)

    def maybe_compact(self, record: SessionRecord) -> None:
        """Fold the WAL into an npz checkpoint once it grows enough."""
        if record.wal is None or record.wal_pending < self._compact_every:
            return
        with trace("service.wal_compact", session=record.session_id):
            self.checkpoint(record)

    def replay(self, record: SessionRecord,
               apply: Callable[[dict[str, Any], bool], Any]) -> None:
        """Re-ingest WAL entries newer than the checkpointed state as
        ``apply(payload, degraded)`` (called during resurrection,
        session lock held)."""
        if record.wal is None:
            return
        replayed = 0
        with trace("service.wal_replay", session=record.session_id):
            for seq, payload, degraded in record.wal.read().entries:
                if seq <= record.pushes:
                    continue
                apply(payload, degraded)
                record.pushes = seq
                replayed += 1
        if replayed:
            add_counter("service_wal_replays_total")
            add_counter("service_wal_replayed_snapshots_total",
                        replayed)
            _logger.info(
                "session %s: replayed %d snapshot(s) from WAL",
                record.session_id, replayed,
            )

    # -- checkpoints ---------------------------------------------------------

    def checkpoint(self, record: SessionRecord) -> bool:
        """Write npz + sidecar for one session and compact its WAL to
        the new watermark (lock held). Whether there was detector state
        to write."""
        npz_key, sidecar_key, _ = self._keys(record.session_id)
        detector = record.detector
        empty = detector is None or detector.latest_snapshot is None
        if not empty:
            with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as temp:
                local = Path(temp) / "checkpoint.npz"
                detector.checkpoint(local)
                data = local.read_bytes()
            self._write(record, lambda guard, token: self._store.put(
                npz_key, data, guard=guard, token=token,
            ))
        sidecar_document = {
            "format": SIDECAR_FORMAT,
            "version": SIDECAR_VERSION,
            "session": record.session_id,
            "config": record.config.to_document(),
            "finalized": record.finalized,
            "pushes": record.pushes,
            "empty": empty,
            "replica": self._ownership.replica_id,
        }
        token = self._ownership.token(record)
        if token is not None:
            sidecar_document["token"] = int(token)
        sidecar_bytes = json.dumps(sidecar_document, indent=1).encode()
        self._write(record, lambda guard, token: self._store.put(
            sidecar_key, sidecar_bytes, guard=guard, token=token,
        ))
        record.has_checkpoint = True
        if record.wal is not None:
            # The checkpoint now holds everything through this push
            # count; shrink the WAL to its watermark.
            self._write(record, lambda guard, token: record.wal.compact(
                record.session_id, record.config.to_document(),
                record.pushes, token=token, guard=guard,
            ))
            record.wal_pending = 0
        return not empty

    def restore(self, record: SessionRecord) -> SessionStream:
        """Rebuild a non-resident session's stream from its checkpoint
        (a fresh one when it was evicted before its first snapshot);
        :meth:`replay` brings it up to date."""
        if not record.has_checkpoint and (
                record.wal is None or not record.wal.exists()):
            raise CheckpointError(
                f"session {record.session_id} lost its detector "
                "without a checkpoint or WAL"
            )
        self._refresh(record)
        npz_key = self._keys(record.session_id)[0]
        with trace("service.resurrect", session=record.session_id):
            if self._store.exists(npz_key):
                with self._store.local_copy(npz_key,
                                            suffix=".npz") as local:
                    return build_stream(record.config, local)
            return build_stream(record.config)

    def _refresh(self, record: SessionRecord) -> None:
        """Sync a non-resident record with its stored sidecar.

        Under leases another replica may have advanced the session
        since we last saw it; the sidecar's push counter and finalized
        flag are authoritative for WAL replay. Single-writer mode
        skips this (the in-memory record is already exact), as does a
        session recovering from a quarantined checkpoint, whose reset
        push counter deliberately disagrees with the sidecar so the
        WAL replays the full history.
        """
        if self._ownership.lease_ttl is None or not record.has_checkpoint:
            return
        try:
            document = self._read_sidecar(record.session_id)
        except (StoreError, ValueError):
            return
        if document.get("format") != SIDECAR_FORMAT:
            return
        record.pushes = int(document.get("pushes", record.pushes))
        record.finalized = bool(
            document.get("finalized", record.finalized)
        )

    def _read_sidecar(self, session_id: str) -> dict[str, Any]:
        """The session's parsed sidecar.

        Raises:
            StoreError: the sidecar cannot be read.
            ValueError: it is not a JSON object.
        """
        document = json.loads(self._store.get(self._keys(session_id)[1]))
        if not isinstance(document, dict):
            raise ValueError("sidecar is not a JSON object")
        return document

    def delete(self, session_id: str) -> None:
        """Remove every stored artifact of a session."""
        for key in self._keys(session_id):
            self._store.delete(key)

    # -- adoption ------------------------------------------------------------

    def scan(self) -> list[str]:
        """Ids of every session with a sidecar or WAL in the store."""
        try:
            keys = self._store.list()
        except StoreError as error:
            _logger.error("cannot list the session store: %s", error)
            return []
        candidates: set[str] = set()
        for key in keys:
            if "/" in key:
                continue  # leases/, quarantine/, foreign prefixes
            stem, _, suffix = key.rpartition(".")
            if suffix in ("json", "wal") and stem:
                candidates.add(stem)
        return sorted(candidates)

    def present(self, session_id: str) -> bool:
        """Whether the store holds a sidecar or WAL for ``session_id``."""
        if not session_id or "/" in session_id:
            return False
        _, sidecar_key, wal_key = self._keys(session_id)
        try:
            return self._store.exists(sidecar_key) or \
                self._store.exists(wal_key)
        except StoreError:
            return False

    def load(self, session_id: str) -> SessionRecord | None:
        """Build a lazy (non-resident) record from stored artifacts;
        ``None`` when the session has no adoptable state.

        Corrupt artifacts (truncated npz, unparseable sidecar, torn
        WAL header, a WAL that lost an entry) are moved under the
        store's ``quarantine/`` prefix with a logged reason instead of
        crashing adoption; a WAL that still holds a session's full
        history can stand in for its damaged checkpoint.
        """
        npz_key, sidecar_key, wal_key = self._keys(session_id)
        wal = SessionWal(self._store, wal_key) if self._wal else None
        contents = WalContents() if wal is None else wal.read()
        record = None
        if self._store.exists(sidecar_key):
            record = self._from_sidecar(session_id, contents)
        if record is None and wal is not None and wal.exists():
            # No usable sidecar: the WAL may still rescue the session.
            record = self._from_orphan_wal(session_id, contents)
        if record is None:
            return None
        # Replay must run pushes+1, pushes+2, ... with no hole; torn
        # tails and duplicate retried appends are already absorbed.
        logged = [seq for seq, _, _ in contents.entries
                  if seq > record.pushes]
        if contents.corrupt_lines or logged != list(
                range(record.pushes + 1, record.pushes + 1 + len(logged))):
            self._quarantine("WAL lost an entry", npz_key, sidecar_key,
                             wal_key)
            return None
        record.wal = wal
        record.wal_pending = len(contents.entries)
        return record

    def _from_sidecar(self, session_id: str,
                      contents: WalContents) -> SessionRecord | None:
        npz_key, sidecar_key, wal_key = self._keys(session_id)
        try:
            document = self._read_sidecar(session_id)
        except (StoreError, ValueError) as error:
            self._quarantine(f"unreadable sidecar: {error}",
                             sidecar_key, npz_key)
            return None
        if document.get("format") != SIDECAR_FORMAT:
            return None  # foreign file; leave it alone
        try:
            config = parse_session_config(document.get("config"))
        except Exception as error:
            self._quarantine(f"bad config in sidecar: {error}",
                             sidecar_key, npz_key)
            return None
        record = SessionRecord(session_id, config)
        record.finalized = bool(document.get("finalized", False))
        record.pushes = int(document.get("pushes", 0))
        record.has_checkpoint = True
        if self._store.exists(npz_key) and not self._npz_usable(npz_key):
            if not contents.valid or contents.compacted_through > 0:
                self._quarantine(
                    "corrupt checkpoint npz and no WAL with full "
                    "history to rebuild it", npz_key, sidecar_key,
                    wal_key,
                )
                return None
            # The WAL still holds every push; rebuild from a fresh
            # detector by replaying it all.
            self._quarantine("corrupt checkpoint npz "
                             "(WAL replays full history)", npz_key)
            record.pushes = 0
            record.has_checkpoint = False
        return record

    def _from_orphan_wal(self, session_id: str,
                         contents: WalContents) -> SessionRecord | None:
        """A session whose only surviving artifact is its WAL (killed
        before the first checkpoint was ever written)."""
        wal_key = self._keys(session_id)[2]
        if not contents.valid:
            self._quarantine("WAL has no valid header", wal_key)
            return None
        if contents.compacted_through > 0:
            self._quarantine(
                "WAL watermark references a checkpoint that is "
                "missing", wal_key,
            )
            return None
        try:
            config = parse_session_config(contents.config)
        except Exception as error:
            self._quarantine(f"bad config in WAL: {error}", wal_key)
            return None
        return SessionRecord(contents.session_id or session_id, config)

    def _npz_usable(self, npz_key: str) -> bool:
        """Whether a stored npz is a readable stream checkpoint."""
        try:
            with self._store.local_copy(npz_key, suffix=".npz") as local, \
                    read_npz_document(local):
                return True
        except (CheckpointError, StoreError):
            return False

    def _quarantine(self, reason: str, *keys: str) -> None:
        """Move corrupt artifacts aside instead of crashing startup."""
        for key in keys:
            if not self._store.exists(key):
                continue
            try:
                self._store.move(key, f"quarantine/{key}")
            except StoreError as error:
                _logger.error("could not quarantine %s: %s",
                              key, error)
                continue
            add_counter("service_quarantined_files_total")
            _logger.warning("quarantined %s: %s", key, reason)
