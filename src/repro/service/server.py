"""The HTTP front of the detection service (stdlib only).

A :class:`ThreadingHTTPServer` exposes a
:class:`~repro.service.sessions.SessionManager` as a JSON API:

========  =============================  =====================================
Method    Path                           Meaning
========  =============================  =====================================
GET       ``/healthz``                   liveness + replica identity
GET       ``/readyz``                    readiness (503 while draining)
GET       ``/metrics``                   Prometheus text exposition
GET       ``/replicas``                  live replica catalogue
POST      ``/sessions``                  create a session
GET       ``/sessions``                  list sessions
GET       ``/sessions/{id}``             one session's summary
POST      ``/sessions/{id}/snapshots``   push a snapshot or batch
GET       ``/sessions/{id}/report``      current finalized-equivalent report
POST      ``/sessions/{id}/finalize``    emit the report and seal the session
DELETE    ``/sessions/{id}``             drop session + checkpoint
========  =============================  =====================================

Deliberate errors are :class:`~repro.service.errors.ServiceError`
subclasses carrying their HTTP status; library errors from parsing or
scoring map to 400 (bad input) or 500 (internal). 429/503 responses
carry a ``Retry-After`` header — the backpressure contract.

:func:`run_server` is the blocking entry point behind ``cad-detect
serve``: it installs SIGTERM/SIGINT handlers that *drain* — stop
accepting work, finish in-flight pushes, checkpoint every session —
and then returns 0.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from ..exceptions import (
    CheckpointError,
    DetectionError,
    GraphConstructionError,
    ReproError,
    SanitizationError,
)
from ..observability import (
    MetricsRegistry,
    add_counter,
    build_metrics_document,
    current_registry,
    enable,
    get_logger,
    render_prometheus,
)
from ..store import StoreUnavailableError
from .errors import (
    BadRequestError,
    NotFoundError,
    ServiceError,
    StoreUnavailableServiceError,
    bounded_retry_after,
)
from .sessions import SessionManager

_logger = get_logger("service.server")

#: Largest request body accepted, in bytes (a snapshot payload for a
#: few thousand nodes fits comfortably; anything bigger should use
#: batches of CSR payloads).
MAX_BODY_BYTES = 64 * 1024 * 1024


def _error_for(exc: Exception) -> ServiceError:
    """Map any raised error to the ServiceError the response renders."""
    if isinstance(exc, ServiceError):
        return exc
    if isinstance(exc, (DetectionError, GraphConstructionError,
                        SanitizationError)):
        return BadRequestError(str(exc))
    if isinstance(exc, StoreUnavailableError):
        # Partition between this replica and the durable store: the
        # request was not acknowledged, so the client can retry safely.
        return StoreUnavailableServiceError(
            str(exc), retry_after=bounded_retry_after(1.0)
        )
    if isinstance(exc, (CheckpointError, ReproError)):
        error = ServiceError(str(exc))
        return error
    raise exc


class DetectionRequestHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request onto the shared session manager."""

    server: "DetectionHTTPServer"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a reply's body goes out without waiting for the
    # client's delayed ACK of the headers (about 40 ms per reply).
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        _logger.debug("%s %s", self.address_string(), format % args)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise BadRequestError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return None
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise BadRequestError(f"request body is not JSON: {exc}") \
                from exc

    def _respond(self, status: int, document: Any,
                 content_type: str = "application/json",
                 headers: dict[str, str] | None = None) -> None:
        if content_type == "application/json":
            body = json.dumps(document).encode()
        else:
            body = document.encode() if isinstance(document, str) \
                else document
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _respond_error(self, exc: Exception) -> None:
        try:
            error = _error_for(exc)
        except Exception:
            _logger.exception("unhandled error serving %s %s",
                              self.command, self.path)
            error = ServiceError("internal server error")
        headers = {}
        retry_after = getattr(error, "retry_after", None)
        if retry_after is not None:
            headers["Retry-After"] = f"{retry_after:g}"
        status = error.status
        document = {"error": error.code, "message": str(error)}
        owner_url = getattr(error, "owner_url", None)
        owner = getattr(error, "owner", None)
        if owner is not None:
            document["owner"] = owner
        if owner_url is not None:
            # The session's owner is known *and* reachable: answer 307
            # so the client repeats the same request there. 307 (not
            # 302) because the method and body must be preserved.
            status = 307
            headers["Location"] = owner_url.rstrip("/") + self.path
            document["owner_url"] = owner_url
            add_counter("service_ownership_redirects_total")
        add_counter("service_http_errors_total", code=error.code)
        self._respond(status, document, headers=headers)

    def _dispatch(self, handler, *args: Any) -> None:
        try:
            handler(*args)
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # noqa: BLE001 - rendered as JSON
            try:
                self._respond_error(exc)
            except BrokenPipeError:
                pass

    # -- verbs ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._post)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._delete)

    # -- routes --------------------------------------------------------------

    def _get(self) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        manager = self.server.manager
        if parts == ["healthz"]:
            self._respond(200, {
                "status": "ok",
                "replica": manager.replica_id,
                "draining": manager.draining,
            })
            return
        if parts == ["replicas"]:
            self._respond(200, manager.replica_catalogue())
            return
        if parts == ["readyz"]:
            if manager.draining:
                self._respond(503, {"status": "draining"},
                              headers={"Retry-After": "5"})
            elif manager.degraded:
                # Still serving (200), but shedding eligible work onto
                # the approximate backend under sustained pressure.
                self._respond(200, {"status": "degraded"})
            else:
                self._respond(200, {"status": "ready"})
            return
        if parts == ["metrics"]:
            document = build_metrics_document(self.server.registry)
            self._respond(
                200, render_prometheus(document),
                content_type="text/plain; version=0.0.4",
            )
            return
        if parts == ["sessions"]:
            self._respond(200, manager.list_sessions())
            return
        if len(parts) == 2 and parts[0] == "sessions":
            self._respond(200, manager.session_info(parts[1]))
            return
        if len(parts) == 3 and parts[0] == "sessions" \
                and parts[2] == "report":
            include_scores = _flag(url.query, "include_scores")
            self._respond(
                200,
                manager.report(parts[1], include_scores=include_scores),
            )
            return
        raise NotFoundError(f"no route GET {url.path}")

    def _post(self) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        manager = self.server.manager
        if parts == ["sessions"]:
            self._respond(201, manager.create_session(self._read_body()))
            return
        if len(parts) == 3 and parts[0] == "sessions":
            session_id, action = parts[1], parts[2]
            if action == "snapshots":
                self._respond(
                    200, manager.push(session_id, self._read_body())
                )
                return
            if action == "finalize":
                include_scores = _flag(url.query, "include_scores")
                self._respond(
                    200,
                    manager.finalize(session_id,
                                     include_scores=include_scores),
                )
                return
        raise NotFoundError(f"no route POST {url.path}")

    def _delete(self) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if len(parts) == 2 and parts[0] == "sessions":
            self.server.manager.delete(parts[1])
            self._respond(200, {"session": parts[1], "deleted": True})
            return
        raise NotFoundError(f"no route DELETE {url.path}")


def _flag(query: str, name: str) -> bool:
    values = parse_qs(query).get(name, [])
    return any(v.lower() in ("1", "true", "yes") for v in values)


class DetectionHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one session manager.

    ``server_close`` (inherited) joins in-flight handler threads, so
    shutdown -> close -> :meth:`SessionManager.drain` is a clean drain:
    no new connections, in-flight pushes finish, then every session is
    checkpointed.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 manager: SessionManager,
                 registry: MetricsRegistry):
        super().__init__(address, DetectionRequestHandler)
        self.manager = manager
        self.registry = registry

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        return self.server_address[1]

    def advertise(self) -> None:
        """Publish this replica's bound address to the catalogue so
        peers sharing the store (and their clients) can route to it."""
        host, port = self.server_address[:2]
        self.manager.advertise(f"http://{host}:{port}")


def make_server(host: str = "127.0.0.1",
                port: int = 0,
                registry: MetricsRegistry | None = None,
                **options: Any) -> DetectionHTTPServer:
    """Build (but do not run) a service instance.

    The in-process entry point the tests use: bind to ``port=0``, call
    ``serve_forever`` on a thread, and talk to ``server.port``.
    ``options`` are :class:`~repro.service.sessions.SessionManager`'s
    keyword arguments. Instrumentation is enabled globally onto
    ``registry`` (one is created when omitted) so pushes record
    spans/counters; the caller owns restoring the previous registry if
    that matters.
    """
    if registry is None:
        registry = current_registry() or MetricsRegistry()
    enable(registry)
    manager = SessionManager(**options)
    return DetectionHTTPServer((host, port), manager, registry)


def run_server(host: str = "127.0.0.1",
               port: int = 8765,
               install_signal_handlers: bool = True,
               **options: Any) -> int:
    """Run the service until SIGTERM/SIGINT, then drain; returns 0.

    ``options`` are :class:`~repro.service.sessions.SessionManager`'s
    keyword arguments. The drain sequence on a signal:

    1. the manager stops accepting sessions and pushes (new work gets
       503 + ``Retry-After``; ``/readyz`` flips to 503);
    2. the accept loop stops; in-flight requests run to completion and
       are joined;
    3. every resident session is checkpointed to the checkpoint
       directory, from which a future process resumes it.
    """
    server = make_server(host=host, port=port, **options)
    manager = server.manager
    server.advertise()

    def _drain_signal(signum: int, frame: Any) -> None:
        _logger.info("signal %d: draining", signum)
        manager.begin_drain()
        # shutdown() blocks until the accept loop exits, and the accept
        # loop runs on *this* thread — hand it to a helper thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    if install_signal_handlers:
        signal.signal(signal.SIGTERM, _drain_signal)
        signal.signal(signal.SIGINT, _drain_signal)

    _logger.info("serving on %s:%d (%s)", host, server.port,
                 manager.describe())
    print(f"serving on http://{host}:{server.port} "
          f"(checkpoints: {manager.checkpoint_dir})", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()  # joins in-flight handler threads
        drained = manager.drain()
        print(f"drained {drained} session(s) to "
              f"{manager.checkpoint_dir}", flush=True)
    return 0
