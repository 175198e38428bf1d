"""Session lifecycle for the detection service.

A :class:`SessionManager` owns many concurrent
:class:`~repro.core.streaming.StreamingCadDetector` streams:

* **per-session locking** — pushes to one session serialise, pushes to
  distinct sessions run concurrently under the threading HTTP server;
* **bounded ingest** — a global budget of ``max_queue`` snapshots may
  be in flight at once; beyond it pushes fail fast with
  :class:`~repro.service.errors.CapacityError` (HTTP 429 +
  ``Retry-After``) instead of queueing unboundedly;
* **LRU eviction** — at most ``max_sessions`` detectors stay resident;
  the least-recently-used idle session is checkpointed to the store
  and transparently resurrected on its next request;
* **drain** — :meth:`drain` checkpoints every resident session and
  releases its leases so a SIGTERM leaves nothing but resumable,
  immediately adoptable state behind;
* **adoption** — sessions found in the store, at startup or on their
  first request, are claimed, loaded, and registered along one path;
* **failure isolation** — per-session circuit breakers trip
  persistently failing sessions to 503-with-reason, request deadlines
  bound how long a push may wait on a wedged session, and sustained
  queue pressure flips the manager into a *degraded mode* that sheds
  eligible sessions onto the approximate commute-time backend.

Checkpoints, sidecars, the write-ahead log and quarantine belong to
:mod:`repro.service.durability`; leases, fencing and the replica
catalogue to :mod:`repro.service.ownership`.

Batch pushes can be routed through the parallel engine
(:class:`~repro.parallel.ParallelCadDetector`, ``workers > 1``) when
the configuration guarantees bit-for-bit parity with serial scoring;
anything else falls back to serial pushes.
"""

from __future__ import annotations

import dataclasses
import tempfile
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from ..core.streaming import StreamingCadDetector
from ..exceptions import (
    DetectionError,
    GraphConstructionError,
    SanitizationError,
)
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import GraphSnapshot
from ..observability import (
    add_counter,
    get_logger,
    set_gauge,
    set_log_context,
    trace,
)
from ..parallel import ParallelCadDetector
from ..pipeline.serialize import (
    raw_snapshot_from_payload,
    report_to_dict,
    snapshot_from_payload,
)
from ..store import (
    FencedWriteError,
    LocalDirStore,
    SessionStore,
    StoreUnavailableError,
    resolve_store,
)
from .durability import (
    SessionDurability,
    SessionRecord,
    SessionStream,
    build_stream,
)
from .errors import (
    CapacityError,
    CircuitOpenError,
    DeadlineError,
    NotFoundError,
    NotOwnerError,
    ServiceError,
    SessionStateError,
    ShuttingDownError,
    bounded_retry_after,
)
from .ownership import SessionOwnership, default_replica_id
from .protocol import (
    SessionConfig,
    parse_session_config,
    push_response,
    snapshot_documents,
)

_logger = get_logger("service.sessions")

#: Utilization at/below which pressure is considered relieved (the
#: degraded-mode hysteresis floor; the ceiling is configurable).
DEGRADE_RECOVER_UTILIZATION = 0.25


class SessionManager:
    """Thread-safe owner of every live and evicted session.

    Args:
        max_sessions: resident-detector ceiling; the LRU idle session
            is checkpointed to the store when a new one would exceed it.
        max_queue: global bound on snapshots being ingested at once
            (the backpressure budget).
        checkpoint_dir: where eviction/drain checkpoints live when no
            ``store`` is given (wrapped in a
            :class:`~repro.store.LocalDirStore`, byte-compatible with
            the pre-store layout); also scanned at startup so sessions
            survive a restart.
        store: durable backend for checkpoints, sidecars, WALs, and
            lease records — a :class:`~repro.store.SessionStore` or a
            ``local:<dir>`` / ``shared:<dir>`` spec string. Mutually
            exclusive with ``checkpoint_dir``.
        replica_id: this replica's stable identity for lease records,
            log context, ``/healthz``, and the replica catalogue
            (default: ``<hostname>-<pid>``).
        lease_ttl: enable per-session ownership leases with this TTL
            in seconds. Required for multi-replica deployments on a
            shared store; ``None`` (default) keeps the single-writer
            behavior with no lease overhead.
        workers: when > 1, eligible batch pushes are scored by the
            parallel engine with this many processes.
        wal: write every accepted snapshot to a per-session
            write-ahead log and replay it on adoption, so hard kills
            (SIGKILL/OOM) lose nothing acknowledged (default on).
        wal_compact_every: compact a session's WAL into its npz
            checkpoint after this many logged snapshots.
        request_deadline: seconds a push may wait for its session lock
            before failing with 503 ``deadline_exceeded`` (``None``
            waits indefinitely).
        breaker_threshold: consecutive server-side push failures that
            trip a session's circuit breaker.
        breaker_cooldown: seconds a tripped breaker stays open
            (doubles on consecutive trips, capped at 32x).
        degrade_pressure: ingest-budget utilization at/above which an
            acquisition counts as pressure.
        degrade_after: consecutive pressured acquisitions before the
            manager enters degraded mode (and, symmetrically, calm
            acquisitions before it recovers).
        factor_cache: enable the process-wide factorization cache
            (:mod:`repro.linalg.factorcache`) for every CAD session by
            default; individual sessions may still opt in via their
            own config when this is off.
        cache_budget_mb: byte budget for the shared factor cache
            applied to sessions that don't set their own.
        catalog_ttl: lifetime of this replica's catalogue record
            (``replicas/<id>.json``); refreshed at a third of it once
            :meth:`advertise` has run.
    """

    def __init__(self, max_sessions: int = 64,
                 max_queue: int = 32,
                 checkpoint_dir: str | Path | None = None,
                 store: SessionStore | str | None = None,
                 replica_id: str | None = None,
                 lease_ttl: float | None = None,
                 workers: int = 1,
                 wal: bool = True,
                 wal_compact_every: int = 64,
                 request_deadline: float | None = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0,
                 degrade_pressure: float = 0.85,
                 degrade_after: int = 3,
                 factor_cache: bool = False,
                 cache_budget_mb: int | None = None,
                 catalog_ttl: float = 15.0):
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        self._max_sessions = int(max_sessions)
        self._max_queue = int(max_queue)
        self._workers = max(int(workers), 1)
        self._request_deadline = request_deadline
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_cooldown = float(breaker_cooldown)
        self._degrade_pressure = float(degrade_pressure)
        self._degrade_after = max(int(degrade_after), 1)
        self._factor_cache = bool(factor_cache)
        self._cache_budget_mb = cache_budget_mb
        if store is not None and checkpoint_dir is not None:
            raise ValueError(
                "pass either store= or checkpoint_dir=, not both"
            )
        if store is not None:
            self._store = resolve_store(store)
        else:
            if checkpoint_dir is None:
                checkpoint_dir = tempfile.mkdtemp(prefix="repro-service-")
                _logger.info("checkpoint dir not given; using %s",
                             checkpoint_dir)
            self._store = LocalDirStore(checkpoint_dir)
        replica_id = replica_id or default_replica_id()
        # Every log record this process emits now carries the replica
        # identity, so interleaved multi-replica logs stay attributable.
        set_log_context(replica=replica_id)
        self._ownership = SessionOwnership(self._store, replica_id,
                                           lease_ttl, catalog_ttl)
        self._durability = SessionDurability(
            self._store, self._ownership, wal, wal_compact_every,
        )
        self._sessions: dict[str, SessionRecord] = {}
        self._table_lock = threading.Lock()
        # Serializes claim -> load -> register so two concurrent
        # requests for the same unknown session don't both acquire its
        # lease (the second acquisition would bump the token and fence
        # the first's writes for nothing).
        self._adopt_lock = threading.Lock()
        self._clock = 0  # monotonic LRU counter, guarded by _table_lock
        self._in_flight = 0  # ingest budget in use, guarded by _table_lock
        self._draining = False
        # Degraded-mode state, guarded by _table_lock: recent
        # per-snapshot ingest latencies (the Retry-After estimator) and
        # the pressure/calm streak counters.
        self._latencies: deque[float] = deque(maxlen=32)
        self._degraded = False
        self._pressure_high = 0
        self._pressure_low = 0
        self._load_existing()
        # The lease heartbeat starts only after startup adoption, so
        # it never races _load_existing's acquisitions.
        self._ownership.start_heartbeat(self._records, self._drop)

    # -- public properties ---------------------------------------------------

    @property
    def checkpoint_dir(self) -> Path:
        """Root of the durable store (eviction/drain checkpoints)."""
        return Path(self._store.root)

    @property
    def store(self) -> SessionStore:
        """The durable store behind this manager."""
        return self._store

    @property
    def replica_id(self) -> str:
        """This replica's identity in lease records."""
        return self._ownership.replica_id

    def advertise(self, url: str) -> None:
        """Publish this replica's address to the shared catalogue
        (called once the HTTP server knows its bound address)."""
        self._ownership.advertise(url)

    def replica_catalogue(self) -> dict[str, Any]:
        """The live replica catalogue, for ``GET /replicas``."""
        return self._ownership.catalogue()

    @property
    def draining(self) -> bool:
        """Whether the manager stopped accepting new work."""
        return self._draining

    @property
    def workers(self) -> int:
        """Worker processes for eligible batch pushes (1 = serial)."""
        return self._workers

    @property
    def degraded(self) -> bool:
        """Whether sustained pressure is shedding eligible sessions
        onto the approximate backend."""
        return self._degraded

    def describe(self) -> str:
        """The manager's settings, for the startup log line."""
        ttl = self._ownership.lease_ttl
        return (f"max_sessions={self._max_sessions} "
                f"max_queue={self._max_queue} workers={self._workers} "
                f"store={self._store.describe()} replica={self.replica_id} "
                f"leases={'off' if ttl is None else f'{ttl:g}s'}")

    def begin_drain(self) -> None:
        """Stop accepting new sessions and pushes (in-flight finish)."""
        self._draining = True

    # -- session lifecycle ---------------------------------------------------

    def create_session(self, document: Any) -> dict[str, Any]:
        """Create a session from a ``POST /sessions`` body."""
        if self._draining:
            raise ShuttingDownError()
        config = parse_session_config(document)
        config = self._apply_cache_defaults(config)
        session_id = uuid.uuid4().hex[:12]
        record = SessionRecord(session_id, config)
        record.detector = build_stream(config)
        try:
            record.lease = self._ownership.claim(session_id)
        except NotOwnerError:
            raise ServiceError(
                f"could not acquire the lease for new session "
                f"{session_id}"
            ) from None
        self._durability.create(record)
        self._register(record)
        self._evict_over_limit()
        add_counter("service_sessions_created_total")
        _logger.info("session %s created", session_id)
        return self._info_document(record)

    def _apply_cache_defaults(self, config: SessionConfig) -> SessionConfig:
        """Fold the manager's factor-cache defaults into a new session.

        Applied at creation (so the sidecar persists the *effective*
        setting and resurrection reproduces it), never on restore.
        Sessions that opt in themselves only inherit the byte budget.
        """
        if not config.uses_cad:
            return config
        updates: dict[str, Any] = {}
        if self._factor_cache and not config.factor_cache:
            updates["factor_cache"] = True
        if (self._cache_budget_mb is not None
                and config.cache_budget_mb is None
                and (config.factor_cache or self._factor_cache)):
            updates["cache_budget_mb"] = self._cache_budget_mb
        if updates:
            config = dataclasses.replace(config, **updates)
        return config

    def push(self, session_id: str, body: Any) -> dict[str, Any]:
        """Ingest one snapshot payload (or a batch) into a session."""
        if self._draining:
            raise ShuttingDownError()
        documents = snapshot_documents(body)
        record = self._get(session_id)
        self._check_breaker(record)
        self._acquire_ingest(len(documents))
        started = time.monotonic()
        try:
            with self._session_lock(record), \
                    trace("service.push", batch=len(documents)):
                if record.finalized:
                    raise SessionStateError(
                        f"session {session_id} is finalized and no "
                        "longer accepts snapshots"
                    )
                try:
                    detector = self._require_resident(record)
                    quarantined_before = len(
                        detector.health.quarantined
                    )
                    snapshots = self._parse_batch(record, documents)
                    degraded = self._should_degrade(record, detector)
                    results = self._ingest(record, detector, snapshots,
                                           degraded=degraded)
                    self._durability.append(record, documents, degraded)
                    record.pushes += len(documents)
                    self._note_success(record)
                    self._durability.maybe_compact(record)
                except FencedWriteError as error:
                    # Ownership moved mid-request: drop our stale state.
                    record.detector = None
                    self._drop(record)
                    raise self._ownership.fenced(record, error) from error
                except Exception as error:
                    self._note_failure(record, error)
                    raise
                quarantined_after = len(detector.health.quarantined)
                add_counter("service_snapshots_ingested_total",
                            len(documents))
                response = push_response(
                    session_id, results, detector,
                    quarantined_before, quarantined_after,
                )
                if degraded:
                    response["degraded"] = True
                return response
        finally:
            self._observe_latency(time.monotonic() - started,
                                  len(documents))
            self._release_ingest(len(documents))
            self._touch(record)
            self._evict_over_limit()

    def report(self, session_id: str,
               include_scores: bool = False) -> dict[str, Any]:
        """The session's current finalized-equivalent report."""
        record = self._get(session_id)
        try:
            with record.lock:
                detector = self._require_resident(record)
                if detector.num_transitions == 0:
                    raise SessionStateError(
                        f"session {session_id} has no scored "
                        "transitions yet"
                    )
                report = detector.finalize()
                document = report_to_dict(
                    report, include_scores=include_scores
                )
                document["session"] = session_id
                if record.degraded_pushes:
                    document["degraded_pushes"] = record.degraded_pushes
                return document
        finally:
            self._touch(record)

    def finalize(self, session_id: str,
                 include_scores: bool = False) -> dict[str, Any]:
        """Finalize a session: emit its report and seal it.

        The session stays readable (``GET .../report``) but rejects
        further snapshots.
        """
        document = self.report(session_id, include_scores=include_scores)
        record = self._get(session_id)
        with record.lock:
            record.finalized = True
        document["finalized"] = True
        add_counter("service_sessions_finalized_total")
        return document

    def delete(self, session_id: str) -> None:
        """Drop a session, its stored state, and its lease."""
        with self._table_lock:
            record = self._sessions.pop(session_id, None)
            self._update_gauges()
        if record is None:
            raise NotFoundError(f"no session {session_id!r}")
        with record.lock:
            record.detector = None
            self._durability.delete(session_id)
            self._ownership.forget(record)
        add_counter("service_sessions_deleted_total")
        _logger.info("session %s deleted", session_id)

    def session_info(self, session_id: str) -> dict[str, Any]:
        """One session's summary document."""
        return self._info_document(self._get(session_id))

    def list_sessions(self) -> dict[str, Any]:
        """Summaries of every known session."""
        records = self._records()
        return {
            "sessions": [self._info_document(r) for r in records],
            "resident": sum(r.resident for r in records),
            "draining": self._draining,
            "degraded": self._degraded,
            "replica": self.replica_id,
            "store": self._store.describe(),
        }

    # -- drain & eviction ----------------------------------------------------

    def drain(self) -> int:
        """Checkpoint every resident session to the store; return how
        many. Held leases are released afterwards so another replica
        adopts the sessions without waiting out the TTL.

        Called after the HTTP server stopped accepting connections and
        joined its in-flight handlers, so session locks are only held
        against stragglers — we still take them for safety.
        """
        self._draining = True
        self._stop_heartbeat()
        self._ownership.stop_catalog(withdraw=True)
        records = self._records()
        drained = 0
        with trace("service.drain", sessions=len(records)):
            for record in records:
                with record.lock:
                    if self._unload(record, "drain"):
                        drained += 1
        _logger.info("drained %d session(s) to %s", drained,
                     self._store.describe())
        return drained

    def abandon(self) -> None:
        """Chaos/test hook: die without cleanup.

        Stops lease heartbeats and forgets all in-memory state without
        checkpointing or releasing anything — exactly what a SIGKILLed
        replica leaves behind: unreleased leases (adoptable after the
        TTL) and a WAL holding every acknowledged push.
        """
        self._stop_heartbeat()
        # The catalogue record is deliberately *not* withdrawn: a
        # SIGKILLed replica leaves its advertisement to age out.
        self._ownership.stop_catalog(withdraw=False)
        self._draining = True
        with self._table_lock:
            self._sessions.clear()
            self._update_gauges()

    def _evict_over_limit(self) -> None:
        """Evict LRU idle sessions until the resident count fits."""
        while True:
            victim = None
            with self._table_lock:
                resident = [
                    r for r in self._sessions.values() if r.resident
                ]
                if len(resident) <= self._max_sessions:
                    return
                for record in sorted(resident,
                                     key=lambda r: r.last_active):
                    # Skip sessions mid-push; a busy session is by
                    # definition not idle. locked() probes would race,
                    # acquire(blocking=False) is the atomic probe.
                    if record.lock.acquire(blocking=False):
                        victim = record
                        break
                if victim is None:
                    # Everything over the limit is busy right now;
                    # the next push's epilogue will retry.
                    return
            try:
                self._evict_locked(victim)
            finally:
                victim.lock.release()

    def _evict_locked(self, record: SessionRecord) -> None:
        """Checkpoint + drop one session's detector (lock held)."""
        if record.detector is None:
            return
        with trace("service.evict", session=record.session_id):
            self._unload(record, "eviction")
        add_counter("service_evictions_total")
        with self._table_lock:
            self._update_gauges()
        _logger.info("session %s evicted to the store",
                     record.session_id)

    def _unload(self, record: SessionRecord, during: str) -> bool:
        """Checkpoint and drop a session's detector, then release its
        lease so any replica (us included) can pick it up (lock held).
        Whether detector state was checkpointed."""
        written = False
        if record.detector is not None:
            try:
                written = self._durability.checkpoint(record)
            except FencedWriteError as error:
                # Ownership moved meanwhile; the new owner has the
                # authoritative state — just drop ours.
                _logger.warning("session %s fenced during %s: %s",
                                record.session_id, during, error)
                add_counter("service_fenced_writes_total")
            record.detector = None
        self._ownership.release(record.lease)
        record.lease = None
        return written

    # -- adoption ------------------------------------------------------------

    def _load_existing(self) -> None:
        """Adopt sessions a previous (or sibling) process left in the
        store. Under leases, sessions owned by a live replica are
        skipped here and adopted on demand once their lease lapses."""
        for session_id in self._durability.scan():
            try:
                self._adopt_stored(session_id, startup=True)
            except NotOwnerError:
                _logger.info(
                    "session %s is leased to another replica; "
                    "deferring adoption", session_id,
                )

    def _adopt_stored(self, session_id: str,
                      startup: bool = False) -> SessionRecord | None:
        """Claim, load, and register a session found in the store —
        the one adoption path of startup and on-demand discovery.
        ``None`` when the store holds nothing adoptable.

        Raises:
            NotOwnerError: the session's lease is held by a live
                replica; the client should retry (here or there) after
                the remaining TTL.
        """
        with self._adopt_lock:
            with self._table_lock:
                record = self._sessions.get(session_id)
            if record is not None:
                return record  # a concurrent request adopted it
            lease = self._ownership.claim(session_id, startup=startup)
            record = self._durability.load(session_id)
            if record is None:
                self._ownership.release(lease)
                return None
            record.lease = lease
            self._register(record)
        _logger.info("adopted session %s from %s", record.session_id,
                     self._store.describe())
        return record

    def _register(self, record: SessionRecord) -> None:
        with self._table_lock:
            record.last_active = self._tick()
            self._sessions[record.session_id] = record
            self._update_gauges()

    def _records(self) -> list[SessionRecord]:
        with self._table_lock:
            return list(self._sessions.values())

    def _drop(self, record: SessionRecord) -> None:
        """Forget a session another replica now owns."""
        with self._table_lock:
            self._sessions.pop(record.session_id, None)
            self._update_gauges()

    def _stop_heartbeat(self) -> None:
        self._ownership.stop_heartbeat()

    # -- ingest internals ----------------------------------------------------

    def _parse_batch(self, record: SessionRecord,
                     documents: list[dict[str, Any]]) -> list[Any]:
        """Payloads -> snapshots (or raw triples under a sanitize
        policy, which tolerates dirty matrices)."""
        universe = record.universe
        if universe is None and record.detector is not None and \
                record.detector.latest_snapshot is not None:
            universe = record.detector.latest_snapshot.universe
        parsed = []
        for document in documents:
            if record.config.sanitize is not None:
                matrix, resolved, time = raw_snapshot_from_payload(
                    document, universe
                )
                parsed.append((matrix, resolved, time))
            else:
                snapshot = snapshot_from_payload(document, universe)
                parsed.append(snapshot)
                resolved = snapshot.universe
            universe = resolved
        record.universe = universe
        return parsed

    def _ingest(self, record: SessionRecord,
                detector: SessionStream,
                parsed: list[Any],
                degraded: bool = False) -> list[Any]:
        """Feed parsed snapshots into the stream, parallel when safe.

        Under ``degraded`` the batch is shed onto the approximate
        commute-time backend via a transient calculator override, and
        scored serially (the override is process-local, so it would
        not reach parallel workers).
        """
        if degraded:
            calculator = detector.detector.calculator
            calculator.method_override = "approx"
            try:
                results = self._ingest_serial(record, detector, parsed)
            finally:
                calculator.method_override = None
            record.degraded_pushes += len(parsed)
            add_counter("service_degraded_pushes_total", len(parsed))
            return results
        if record.config.sanitize is None:
            batch: list[GraphSnapshot] = list(parsed)
            if self._parallel_eligible(detector, batch):
                return self._ingest_parallel(detector, batch)
        return self._ingest_serial(record, detector, parsed)

    def _ingest_serial(self, record: SessionRecord,
                       detector: SessionStream,
                       parsed: list[Any]) -> list[Any]:
        if record.config.sanitize is not None:
            return [
                detector.push_raw(matrix, time=time, universe=resolved)
                for matrix, resolved, time in parsed
            ]
        return [detector.push(snapshot) for snapshot in parsed]

    def _should_degrade(self, record: SessionRecord,
                        detector: SessionStream) -> bool:
        """Whether this push sheds to the approximate backend.

        Only sessions that left method selection to the service
        (``method == "auto"``) may be shed — an explicit method choice
        is a correctness contract. Incremental detectors maintain
        factorizations that cannot switch backends mid-stream.
        """
        return (self._degraded
                and record.config.method == "auto"
                and not detector.incremental)

    def _parallel_eligible(self, detector: SessionStream,
                           batch: list[GraphSnapshot]) -> bool:
        """Whether the parallel engine reproduces serial pushes exactly.

        Only CAD streams parallelize (the engine shards commute-time
        scoring); transition sharding is bit-for-bit on either backend,
        except with the delta tier (``delta_budget > 0``: a factor
        cache's default, or ``incremental``), which advances each
        ``L^+`` from the previous snapshot's — a worker starting a
        chunk cold cannot do that.
        """
        if not isinstance(detector, StreamingCadDetector):
            return False
        if self._workers <= 1 or len(batch) < 2:
            return False
        if detector.latest_snapshot is None:
            return False
        return detector.detector.calculator.delta_budget == 0

    def _ingest_parallel(self, detector: StreamingCadDetector,
                         batch: list[GraphSnapshot]) -> list[Any]:
        graph = DynamicGraph([detector.latest_snapshot, *batch])
        engine = ParallelCadDetector.from_detector(
            detector.detector, workers=self._workers,
            shard_by="transition",
        )
        with trace("service.parallel_batch", transitions=len(batch),
                   workers=self._workers):
            scored = engine.score_sequence(graph)
        return [
            detector.ingest_scored(snapshot, scores)
            for snapshot, scores in zip(batch, scored)
        ]

    def _acquire_ingest(self, count: int) -> None:
        """Claim ``count`` slots of the global ingest budget or 429."""
        if count > self._max_queue:
            raise CapacityError(
                f"batch of {count} snapshots exceeds the ingest budget "
                f"of {self._max_queue}; split the batch",
                retry_after=bounded_retry_after(1.0),
            )
        with self._table_lock:
            if self._in_flight + count > self._max_queue:
                add_counter("service_rejections_total",
                            reason="over_capacity")
                self._note_pressure_locked(1.0)
                raise CapacityError(
                    f"ingest budget exhausted ({self._in_flight} of "
                    f"{self._max_queue} snapshots in flight)",
                    retry_after=bounded_retry_after(
                        self._retry_after_locked()
                    ),
                )
            self._in_flight += count
            set_gauge("service_ingest_in_flight", self._in_flight)
            self._note_pressure_locked(
                self._in_flight / self._max_queue
            )

    def _release_ingest(self, count: int) -> None:
        with self._table_lock:
            self._in_flight = max(self._in_flight - count, 0)
            set_gauge("service_ingest_in_flight", self._in_flight)

    def _retry_after_locked(self) -> float:
        """Backpressure-derived ``Retry-After`` estimate (lock held):
        queue depth times the recent mean per-snapshot latency.
        Jitter and the hard [floor, cap] clamp are applied by
        :func:`~repro.service.errors.bounded_retry_after` at the
        raise site."""
        if self._latencies:
            mean = sum(self._latencies) / len(self._latencies)
        else:
            mean = 1.0
        return max(self._in_flight, 1) * mean

    def _observe_latency(self, elapsed: float, count: int) -> None:
        """Record a push's per-snapshot latency for the estimator."""
        with self._table_lock:
            self._latencies.append(
                max(elapsed, 0.0) / max(count, 1)
            )

    def _note_pressure_locked(self, utilization: float) -> None:
        """Track sustained budget pressure; flip degraded mode after
        ``degrade_after`` consecutive observations (lock held)."""
        if utilization >= self._degrade_pressure:
            self._pressure_high += 1
            self._pressure_low = 0
            if not self._degraded and \
                    self._pressure_high >= self._degrade_after:
                self._degraded = True
                set_gauge("service_degraded", 1)
                add_counter("service_degraded_entries_total")
                _logger.warning(
                    "sustained ingest pressure (utilization %.2f); "
                    "entering degraded mode", utilization,
                )
        elif utilization <= DEGRADE_RECOVER_UTILIZATION:
            self._pressure_low += 1
            self._pressure_high = 0
            if self._degraded and \
                    self._pressure_low >= self._degrade_after:
                self._degraded = False
                set_gauge("service_degraded", 0)
                _logger.info(
                    "ingest pressure relieved; leaving degraded mode"
                )
        else:
            self._pressure_high = 0
            self._pressure_low = 0

    # -- failure isolation ---------------------------------------------------

    @contextmanager
    def _session_lock(self, record: SessionRecord):
        """Acquire a session's lock, honoring the request deadline."""
        if self._request_deadline is None:
            acquired = record.lock.acquire()
        else:
            acquired = record.lock.acquire(
                timeout=self._request_deadline
            )
        if not acquired:
            add_counter("service_deadline_timeouts_total")
            raise DeadlineError(
                f"session {record.session_id} did not become "
                f"available within {self._request_deadline:g}s",
                retry_after=max(self._request_deadline, 1.0),
            )
        try:
            yield
        finally:
            record.lock.release()

    def _check_breaker(self, record: SessionRecord) -> None:
        """Reject the push while the session's breaker is open."""
        remaining = record.breaker_until - time.monotonic()
        if remaining > 0:
            raise CircuitOpenError(
                f"session {record.session_id} circuit breaker is "
                f"open ({record.breaker_reason})",
                retry_after=bounded_retry_after(max(remaining, 0.1)),
            )

    def _note_success(self, record: SessionRecord) -> None:
        """A successful push closes the breaker fully."""
        record.breaker_failures = 0
        record.breaker_until = 0.0

    def _note_failure(self, record: SessionRecord,
                      error: BaseException) -> None:
        if not self._counts_as_failure(error):
            return
        # A failure while the breaker was half-open (cooldown elapsed,
        # this push was the probe) re-trips immediately.
        failed_probe = 0.0 < record.breaker_until <= time.monotonic()
        record.breaker_failures += 1
        if failed_probe or \
                record.breaker_failures >= self._breaker_threshold:
            self._trip_breaker(record, error)

    @staticmethod
    def _counts_as_failure(error: BaseException) -> bool:
        """Only server-side faults count toward the breaker: client
        errors (4xx), flow-control rejections, and infrastructure
        transients (partitions, ownership moves) must not trip it."""
        if isinstance(error, (ShuttingDownError, CircuitOpenError,
                              DeadlineError, CapacityError,
                              NotOwnerError)):
            return False
        if isinstance(error, (FencedWriteError,
                              StoreUnavailableError)):
            return False  # infrastructure, not the session's fault
        if isinstance(error, ServiceError):
            return error.status >= 500
        if isinstance(error, (GraphConstructionError,
                              SanitizationError, DetectionError)):
            return False  # rendered as 400: the payload's fault
        return True

    def _trip_breaker(self, record: SessionRecord,
                      error: BaseException) -> None:
        cooldown = self._breaker_cooldown * \
            2 ** min(record.breaker_trips, 5)
        record.breaker_until = time.monotonic() + cooldown
        record.breaker_trips += 1
        record.breaker_reason = f"{type(error).__name__}: {error}"
        record.breaker_failures = 0
        add_counter("service_breaker_trips_total")
        _logger.warning(
            "session %s breaker tripped for %.1fs: %s",
            record.session_id, cooldown, record.breaker_reason,
        )

    # -- small helpers -------------------------------------------------------

    def _get(self, session_id: str) -> SessionRecord:
        with self._table_lock:
            record = self._sessions.get(session_id)
        if record is None and self._durability.present(session_id):
            record = self._adopt_stored(session_id)
        if record is None:
            raise NotFoundError(f"no session {session_id!r}")
        return record

    def _require_resident(self, record: SessionRecord,
                          ) -> SessionStream:
        """The session's live detector, rebuilt from the store and its
        WAL replayed if evicted (lock held)."""
        self._ownership.ensure(record)
        if record.detector is not None:
            return record.detector
        detector = self._durability.restore(record)
        record.detector = detector
        if record.universe is None and \
                detector.latest_snapshot is not None:
            record.universe = detector.latest_snapshot.universe
        self._durability.replay(
            record, lambda payload, degraded: self._ingest(
                record, detector, self._parse_batch(record, [payload]),
                degraded=degraded,
            ),
        )
        add_counter("service_resurrections_total")
        with self._table_lock:
            self._update_gauges()
        _logger.info("session %s resurrected from %s",
                     record.session_id, self._store.describe())
        return detector

    def _touch(self, record: SessionRecord) -> None:
        with self._table_lock:
            record.last_active = self._tick()

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _update_gauges(self) -> None:
        """Refresh session gauges (table lock held)."""
        resident = sum(
            r.resident for r in self._sessions.values()
        )
        set_gauge("service_sessions_resident", resident)
        set_gauge("service_sessions_total", len(self._sessions))

    def _info_document(self, record: SessionRecord) -> dict[str, Any]:
        detector = record.detector
        document = {
            "session": record.session_id,
            "config": record.config.to_document(),
            "resident": record.resident,
            "finalized": record.finalized,
            "pushes": record.pushes,
            "num_transitions": (
                detector.num_transitions if detector is not None else None
            ),
            "current_delta": (
                detector.current_delta if detector is not None else None
            ),
            "has_checkpoint": record.has_checkpoint,
            "wal": record.wal is not None,
            "degraded_pushes": record.degraded_pushes,
            "breaker": {
                "open": record.breaker_until > time.monotonic(),
                "trips": record.breaker_trips,
                "reason": record.breaker_reason or None,
            },
        }
        lease = self._ownership.lease_document(record)
        if lease is not None:
            document["lease"] = lease
        return document
