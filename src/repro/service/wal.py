"""Per-session write-ahead log for the detection service.

Eviction checkpoints (npz + JSON sidecar) are written when a session
is evicted or the service drains — a *graceful* path. A hard kill
(SIGKILL, OOM) between checkpoints used to lose every push since the
last one. The WAL closes that gap:

* every **accepted** snapshot payload is appended to
  ``<checkpoint-dir>/<session>.wal`` as one JSON line (fsynced), right
  after the detector ingested it;
* on adoption/resurrection, entries newer than the checkpointed push
  count are **replayed** through the ordinary parse/ingest path —
  deterministic scoring makes the rebuilt detector state bit-for-bit
  identical to the pre-crash one;
* periodically (and on every graceful checkpoint) the WAL is
  **compacted**: the npz checkpoint absorbs the replayed state and the
  log is atomically rewritten to just its header + a ``compacted``
  watermark.

The format is torn-write tolerant: a crash can leave at most one
partial trailing line, which :meth:`SessionWal.read` drops (the push
it belonged to was never acknowledged, so at-least-once clients resend
it). Anything else unparseable is surfaced as ``corrupt_lines``, and
adoption quarantines such a log (:mod:`repro.service.durability`).

The log lives behind a :class:`~repro.store.SessionStore` key, so it
is appended through the same durable-write path as checkpoints. Under
session leases every appended record is stamped with the writer's
**fencing token** and every write takes a *guard* (a lease
verification run just before the bytes land), so a replica that lost
its lease cannot extend the new owner's log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..store import SessionStore, StoreKeyError

#: Format marker on the WAL's header line.
WAL_FORMAT = "repro-session-wal"
WAL_VERSION = 1


def _header(session_id: str,
            config_document: dict[str, Any]) -> dict[str, Any]:
    """The log's first line: format marker, session, configuration."""
    return {"wal": WAL_FORMAT, "version": WAL_VERSION, "kind": "create",
            "session": session_id, "config": config_document}


@dataclass
class WalContents:
    """Decoded state of one session's WAL."""

    session_id: str | None = None
    config: dict[str, Any] | None = None
    compacted_through: int = 0
    #: ``(seq, payload, degraded)`` snapshot entries, ascending,
    #: already filtered to ``seq > compacted_through``. ``degraded``
    #: records whether the push was scored on the shed (approximate)
    #: backend, so replay reproduces the exact pre-crash state.
    entries: list[tuple[int, dict[str, Any], bool]] = field(
        default_factory=list
    )
    #: Whether a partial trailing line was dropped (torn write).
    truncated: bool = False
    #: Unparseable non-trailing lines (corruption, not a torn tail).
    corrupt_lines: int = 0

    @property
    def valid(self) -> bool:
        """Whether the log carried a usable header."""
        return self.session_id is not None


class SessionWal:
    """Append-only JSONL log of one session's accepted snapshots.

    Args:
        store: the store whose durable append path holds the log.
        key: the store key of the log; created on the first append.
    """

    def __init__(self, store: SessionStore, key: str):
        self._store = store
        self._key = key

    def exists(self) -> bool:
        return self._store.exists(self._key)

    # -- writing -------------------------------------------------------------

    def append_create(self, session_id: str,
                      config_document: dict[str, Any],
                      guard=None) -> None:
        """Write the header line (once, at session creation)."""
        self._append_lines([_header(session_id, config_document)],
                           guard=guard)

    def append_snapshots(self, documents: list[dict[str, Any]],
                         start_seq: int,
                         degraded: bool = False,
                         token: int | None = None,
                         guard=None) -> int:
        """Log accepted snapshot payloads; returns the last seq used.

        ``start_seq`` is the session's push count *before* this batch,
        so entries get sequence numbers ``start_seq+1 ..``, aligning
        seq with the push counter persisted in checkpoint sidecars.
        ``degraded`` marks entries scored on the shed (approximate)
        backend so replay re-applies the same override. ``token``
        stamps the writer's fencing token into each record, and
        ``guard`` (lease verification) runs just before the append
        lands — see :mod:`repro.store.lease`.
        """
        lines = []
        for offset, document in enumerate(documents):
            line: dict[str, Any] = {
                "kind": "snapshot", "seq": start_seq + offset + 1,
                "payload": document,
            }
            if degraded:
                line["degraded"] = True
            if token is not None:
                line["token"] = int(token)
            lines.append(line)
        self._append_lines(lines, guard=guard)
        return start_seq + len(documents)

    def compact(self, session_id: str,
                config_document: dict[str, Any],
                through_seq: int,
                token: int | None = None,
                guard=None) -> None:
        """Atomically shrink the log to header + watermark.

        Called right after an npz checkpoint captured the detector
        state through push ``through_seq`` — replay will skip
        everything at or below the watermark.
        """
        rewritten = json.dumps(_header(session_id, config_document)) + "\n"
        watermark: dict[str, Any] = {
            "kind": "compacted", "through": int(through_seq),
        }
        if token is not None:
            watermark["token"] = int(token)
        rewritten += json.dumps(watermark) + "\n"
        self._store.put(self._key, rewritten.encode(), guard=guard,
                        token=token)

    def delete(self) -> None:
        self._store.delete(self._key)

    def _append_lines(self, documents: list[dict[str, Any]],
                      guard=None) -> None:
        data = "".join(
            json.dumps(document) + "\n" for document in documents
        )
        self._store.append(self._key, data.encode(), guard=guard)

    # -- reading -------------------------------------------------------------

    def read(self) -> WalContents:
        """Decode the log, tolerating a torn trailing line."""
        contents = WalContents()
        try:
            raw = self._store.get(self._key)
        except StoreKeyError:
            return contents
        lines = raw.split(b"\n")
        # A complete log ends with a newline, leaving a final empty
        # chunk; anything non-empty there is a torn trailing write.
        if lines and lines[-1] != b"":
            contents.truncated = True
        body = [line for line in lines[:-1] if line.strip()]
        tail = lines[-1] if contents.truncated else None
        entries: dict[int, tuple[dict[str, Any], bool]] = {}
        for position, line in enumerate(body):
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except (ValueError, UnicodeDecodeError):
                contents.corrupt_lines += 1
                continue
            kind = record.get("kind")
            if kind == "create":
                if record.get("wal") == WAL_FORMAT:
                    contents.session_id = str(
                        record.get("session", "")
                    ) or None
                    contents.config = record.get("config")
                else:
                    contents.corrupt_lines += 1
            elif kind == "snapshot":
                try:
                    seq = int(record["seq"])
                    payload = record["payload"]
                    if not isinstance(payload, dict):
                        raise TypeError
                except (KeyError, TypeError, ValueError):
                    contents.corrupt_lines += 1
                    continue
                entries[seq] = (payload, bool(record.get("degraded")))
            elif kind == "compacted":
                try:
                    watermark = int(record["through"])
                except (KeyError, TypeError, ValueError):
                    contents.corrupt_lines += 1
                    continue
                contents.compacted_through = max(
                    contents.compacted_through, watermark
                )
            else:
                contents.corrupt_lines += 1
        if tail is not None and tail.strip():
            # Salvage the tail if it happens to parse (kill landed
            # exactly between the payload and its newline).
            try:
                record = json.loads(tail.decode("utf-8"))
                if record.get("kind") == "snapshot":
                    entries[int(record["seq"])] = (
                        record["payload"], bool(record.get("degraded"))
                    )
            except Exception:
                pass
        contents.entries = sorted(
            (seq, payload, degraded)
            for seq, (payload, degraded) in entries.items()
            if seq > contents.compacted_through
        )
        return contents
