"""Coordinator side of the cluster: registration, channels, engine.

Three layers, each thin:

* :class:`ClusterCoordinator` — a listening socket plus an accept
  thread. Remote ``cad-detect cluster-worker`` processes dial in,
  send a ``REGISTER`` frame, and park in a ready pool until a run
  adopts them (and return to it between runs).
* :class:`SocketShardTransport` — the
  :class:`~repro.parallel.transport.ShardTransport` that adopts
  registered workers: ``open_channel`` pops one from the ready pool,
  ships the run's ``CONFIGURE`` frame (the run's
  :class:`~repro.parallel.worker.WorkerConfig` — calculator spec plus
  run flags — and the full CSR snapshot sequence), and wraps the
  connection in a :class:`RemoteWorkerChannel` speaking the
  supervisor's message tuples. Every run carries a fresh ``run`` token
  and channels drop frames from other runs, so a shard result from a
  released worker can never contaminate a later run.
* :class:`ClusterEngine` — :class:`~repro.parallel.ParallelCadDetector`
  with the two transport hooks overridden. Everything else — chunk
  planning, the supervised retry/requeue/deadline loop, deterministic
  merge, δ selection, checkpointing — is inherited unchanged, which is
  what makes remote execution bit-for-bit equal to a serial
  ``detect()``: remote workers run the same task functions on the
  same edge-keyed JL projection, and the merge never sees the
  difference.
"""

from __future__ import annotations

import dataclasses
import secrets
import socket
import threading
import time
from collections import deque
from typing import Any

from ..exceptions import ParallelExecutionError
from ..graphs.dynamic import DynamicGraph
from ..observability import add_counter, get_logger
from ..parallel.engine import ParallelCadDetector
from ..parallel.transport import ShardTransport, WorkerChannel
from ..parallel.worker import WorkerConfig
from . import protocol
from .worker import graph_to_wire

_logger = get_logger("cluster.coordinator")

#: Handshake budget for a dialing worker (seconds).
_HANDSHAKE_TIMEOUT = 10.0


class RemoteWorker:
    """One registered worker connection, parked or adopted."""

    __slots__ = ("conn", "address", "worker_id", "pid", "host",
                 "registered_at")

    def __init__(self, conn: socket.socket, address, info: dict):
        self.conn = conn
        self.address = address
        self.worker_id = str(info.get("worker_id", "?"))
        self.pid = info.get("pid")
        self.host = info.get("host")
        self.registered_at = time.monotonic()

    def describe(self) -> dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "pid": self.pid,
            "host": self.host,
            "address": f"{self.address[0]}:{self.address[1]}",
        }


class ClusterCoordinator:
    """Accepts worker registrations and hands them to transports.

    Args:
        host / port: bind address; port 0 picks a free one (read it
            back from :attr:`port`).
        backlog: listen backlog.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 backlog: int = 16):
        self._listener = socket.socket(socket.AF_INET,
                                       socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self.host, self.port = self._listener.getsockname()[:2]
        self._ready: deque[RemoteWorker] = deque()
        self._lock = threading.Lock()
        self._registered = threading.Condition(self._lock)
        self._closed = False
        self._ever_registered = 0
        self._thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name="cluster-accept",
        )
        self._thread.start()

    # -- registration --------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, address = self._listener.accept()
            except OSError as error:
                if self._closed:
                    return  # listener closed by close()/crash()
                # Transient accept failure — ECONNABORTED (the peer
                # reset while queued in the backlog), EMFILE/ENFILE
                # under fd pressure. The listener is still live: one
                # bad connection must not kill registration forever,
                # so log, breathe, and keep accepting.
                _logger.warning("accept failed (transient): %s", error)
                time.sleep(0.05)
                continue
            if self._closed:
                # Raced with close()/crash(): this connection belongs
                # to whoever binds the port next, not to us.
                try:
                    conn.close()
                except OSError:
                    pass
                return
            try:
                conn.settimeout(_HANDSHAKE_TIMEOUT)
                kind, info = protocol.recv_frame(conn)
                if kind != protocol.REGISTER:
                    raise protocol.ProtocolError(
                        "expected a register frame"
                    )
                protocol.send_frame(conn, protocol.WELCOME,
                                    {"ok": True})
                conn.settimeout(None)
                conn.setsockopt(socket.IPPROTO_TCP,
                                socket.TCP_NODELAY, 1)
                protocol.enable_keepalive(conn)
            except Exception as error:
                _logger.warning("rejected a connection from %s: %s",
                                address, error)
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            worker = RemoteWorker(conn, address, info)
            with self._registered:
                self._ready.append(worker)
                self._ever_registered += 1
                self._registered.notify_all()
            add_counter("cluster_worker_registrations_total")
            if info.get("reconnect"):
                # The worker survived a dropped link or a coordinator
                # restart and elastically rejoined the pool.
                add_counter("cluster_reconnects_total",
                            worker=worker.worker_id)
                _logger.info("worker %s reconnected from %s:%d",
                             worker.worker_id, *address[:2])
            _logger.info("worker %s registered from %s:%d",
                         worker.worker_id, *address[:2])

    def wait_for_workers(self, count: int,
                         timeout: float | None = None) -> int:
        """Block until ``count`` workers sit in the ready pool.

        Returns the ready count; raises
        :class:`~repro.exceptions.ParallelExecutionError` on timeout.
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._registered:
            while len(self._ready) < count:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise ParallelExecutionError(
                        f"only {len(self._ready)} of {count} cluster "
                        f"worker(s) registered within {timeout:g}s; "
                        "start more `cad-detect cluster-worker` "
                        "processes or lower min_workers"
                    )
                self._registered.wait(timeout=remaining)
            return len(self._ready)

    def ready_count(self) -> int:
        with self._lock:
            return len(self._ready)

    def take(self) -> RemoteWorker | None:
        """Adopt the next live ready worker (skipping dead parkers)."""
        while True:
            with self._lock:
                if not self._ready:
                    return None
                worker = self._ready.popleft()
            if _connection_alive(worker.conn):
                return worker
            _logger.info("dropping dead parked worker %s",
                         worker.worker_id)
            try:
                worker.conn.close()
            except OSError:
                pass

    def requeue(self, worker: RemoteWorker) -> None:
        """Return a released worker to the ready pool."""
        with self._registered:
            self._ready.append(worker)
            self._registered.notify_all()

    def workers(self) -> list[dict[str, Any]]:
        """Ready-pool inventory (adopted workers are not listed)."""
        with self._lock:
            return [worker.describe() for worker in self._ready]

    def close(self) -> None:
        """Shut down: release parked workers and stop listening."""
        self._closed = True
        with self._lock:
            parked = list(self._ready)
            self._ready.clear()
        for worker in parked:
            try:
                protocol.send_frame(worker.conn, protocol.SHUTDOWN, {})
            except Exception:
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
        self._stop_listening()

    def crash(self) -> None:
        """Die like a SIGKILL would: no ``SHUTDOWN`` frames, every
        connection just drops. Workers must treat this as a lost link
        and reconnect to a replacement coordinator — the netchaos
        restart-survival scenario."""
        self._closed = True
        self._stop_listening()
        with self._lock:
            parked = list(self._ready)
            self._ready.clear()
        for worker in parked:
            try:
                worker.conn.close()
            except OSError:
                pass

    def _stop_listening(self) -> None:
        """Wake a blocked ``accept()`` *before* closing the listener.

        ``close()`` alone does not reliably interrupt another thread
        parked in ``accept()``; its file descriptor can then be reused
        (e.g. by a replacement coordinator binding the same port) and
        the stale accept thread would steal that listener's
        connections. ``shutdown()`` wakes the thread while the
        descriptor is still ours."""
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self._thread is not threading.current_thread():
            self._thread.join(timeout=2.0)

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _connection_alive(conn: socket.socket) -> bool:
    """Cheap EOF probe on an idle (quiet) connection."""
    try:
        conn.setblocking(False)
        try:
            chunk = conn.recv(1, socket.MSG_PEEK)
        finally:
            conn.setblocking(True)
    except (BlockingIOError, InterruptedError):
        return True
    except OSError:
        return False
    return bool(chunk)


class RemoteWorkerChannel(WorkerChannel):
    """A supervisor-facing channel over one adopted worker socket."""

    def __init__(self, slot: int, worker: RemoteWorker,
                 transport: "SocketShardTransport"):
        self.slot = slot
        self._worker = worker
        self._transport = transport
        self._decoder = protocol.FrameDecoder()
        self._dead = False
        self._released = False

    # -- WorkerChannel -------------------------------------------------------

    def send_task(self, task_id, attempt, function, argument) -> None:
        # ``function`` is always the transition-chunk task. ``kind``
        # keeps the frame what earlier protocol-1 workers expect.
        task = {"kind": "chunk", "transitions": tuple(argument),
                "task_id": task_id, "attempt": attempt}
        try:
            protocol.send_frame(self._worker.conn, protocol.TASK, task)
        except OSError:
            self._dead = True

    def poll(self) -> list[tuple]:
        if self._dead or self._released:
            return []
        frames: list[tuple[int, Any]] = []
        conn = self._worker.conn
        try:
            conn.setblocking(False)
            try:
                while True:
                    chunk = conn.recv(1 << 20)
                    if not chunk:
                        self._dead = True
                        break
                    frames.extend(self._decoder.feed(chunk))
            finally:
                try:
                    conn.setblocking(True)
                except OSError:
                    pass
        except (BlockingIOError, InterruptedError):
            pass
        except protocol.ProtocolError as error:
            # A CRC-failed or undecodable frame condemns only this
            # worker connection: the channel dies, the supervisor
            # requeues its shard, and the run carries on. The worker
            # process itself reconnects and re-registers.
            add_counter("cluster_corrupt_frames_total",
                        worker=self._worker.worker_id)
            _logger.warning(
                "corrupt frame from %s: %s (evicting the connection, "
                "requeueing its shard)", self._worker.worker_id, error,
            )
            self._dead = True
        except OSError as error:
            _logger.warning("channel to %s failed: %s",
                            self._worker.worker_id, error)
            self._dead = True
        return [
            message for message in map(self._translate, frames)
            if message is not None
        ]

    def _translate(self, frame: tuple[int, Any]) -> tuple | None:
        kind, document = frame
        if isinstance(document, dict) and \
                document.get("run", self._transport.run_token) \
                != self._transport.run_token:
            return None  # stale frame from a previous run
        if kind == protocol.HEARTBEAT:
            return ("heartbeat",)
        if kind == protocol.RESULT:
            add_counter("cluster_round_trips_total")
            return ("result", document["task_id"], document["result"])
        if kind == protocol.ERROR:
            return ("error", document["task_id"], document["error"])
        if kind == protocol.INIT_ERROR:
            return ("init_error", document["error"])
        _logger.warning("unexpected %s frame from %s",
                        protocol.MESSAGE_NAMES.get(kind, kind),
                        self._worker.worker_id)
        return None

    def alive(self) -> bool:
        return not self._dead and not self._released

    def kill(self) -> None:
        self._dead = True
        try:
            self._worker.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Release the worker back to the coordinator's ready pool."""
        if self._dead or self._released:
            return
        try:
            protocol.send_frame(self._worker.conn, protocol.RELEASE, {})
        except OSError:
            self._dead = True
            return
        self._released = True
        self._transport.coordinator.requeue(self._worker)

    def join(self, timeout: float) -> None:
        pass  # the remote process outlives the run by design

    def close(self) -> None:
        if self._dead:
            try:
                self._worker.conn.close()
            except OSError:
                pass

    def describe(self) -> str:
        return (f"remote worker {self._worker.worker_id} "
                f"(slot {self.slot})")

    def notify_lost(self, kind: str) -> None:
        if kind == "heartbeat":
            # Heartbeat-idle deadline fired on a connection that never
            # closed: the half-open signature (peer vanished without
            # FIN/RST, or the path went black).
            add_counter("cluster_half_open_evictions_total",
                        worker=self._worker.worker_id)


class SocketShardTransport(ShardTransport):
    """Adopt registered remote workers for one engine run."""

    def __init__(self, coordinator: ClusterCoordinator,
                 config: WorkerConfig, graph: DynamicGraph,
                 heartbeat_interval: float | None):
        self.coordinator = coordinator
        self.run_token = secrets.token_hex(8)
        # Every WorkerConfig field but the shared-memory sequence,
        # which the CSR arrays in "graph" replace.
        spec = {
            field.name: getattr(config, field.name)
            for field in dataclasses.fields(config)
            if field.name != "sequence"
        }
        # One encode for the whole run: every adopted worker gets the
        # same CONFIGURE frame.
        self._configure_frame = protocol.pack_frame(
            protocol.CONFIGURE, {
                "run": self.run_token,
                "spec": spec,
                "heartbeat_interval": heartbeat_interval,
                "graph": graph_to_wire(graph),
            },
        )

    def open_channel(self, slot: int) -> RemoteWorkerChannel | None:
        while True:
            worker = self.coordinator.take()
            if worker is None:
                return None
            try:
                worker.conn.sendall(self._configure_frame)
            except OSError as error:
                _logger.info("worker %s died before configuration: %s",
                             worker.worker_id, error)
                try:
                    worker.conn.close()
                except OSError:
                    pass
                continue
            add_counter("cluster_bytes_sent_total",
                        len(self._configure_frame))
            return RemoteWorkerChannel(slot, worker, self)


class ClusterEngine(ParallelCadDetector):
    """CAD over remote cluster workers, reproducing serial results.

    A drop-in :class:`~repro.parallel.ParallelCadDetector` whose pool
    slots are remote ``cad-detect cluster-worker`` processes adopted
    from a :class:`ClusterCoordinator`. Supervision (heartbeats,
    per-shard deadlines, requeue onto survivors, escalation) and the
    deterministic merge are inherited unchanged.

    Args:
        coordinator: the registration pool to draw workers from.
        workers: pool size; defaults to however many workers are
            registered when the run starts (at least ``min_workers``).
        min_workers: block until this many workers have registered
            (up to ``registration_timeout`` seconds) before running.
        registration_timeout: how long to wait for ``min_workers``.
        **options: everything :class:`ParallelCadDetector` accepts.
    """

    def __init__(self, coordinator: ClusterCoordinator,
                 workers: int | None = None, min_workers: int = 1,
                 registration_timeout: float = 60.0, **options):
        super().__init__(workers=workers, **options)
        self._coordinator = coordinator
        self._min_workers = max(int(min_workers), 1)
        self._registration_timeout = registration_timeout

    @property
    def workers(self) -> int:
        if self._workers:
            return self._workers
        return max(self._coordinator.ready_count(), self._min_workers)

    def _publish_sequence(self, graph: DynamicGraph):
        # No shared memory: the transport ships CSR arrays in its
        # CONFIGURE frame instead.
        return None, (lambda: None)

    def _make_transport(self, config: WorkerConfig,
                        graph: DynamicGraph,
                        pool_size: int) -> SocketShardTransport:
        self._coordinator.wait_for_workers(
            min(self._min_workers, pool_size),
            self._registration_timeout,
        )
        return SocketShardTransport(
            self._coordinator, config, graph,
            self._heartbeat_interval,
        )
