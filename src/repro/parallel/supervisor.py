"""A supervised worker pool that survives worker death and hangs.

``concurrent.futures.ProcessPoolExecutor`` fails closed: one dead
worker breaks the pool and every pending task with it. This module
replaces it for the parallel CAD engine with explicit supervision:

* each worker sits behind a private
  :class:`~repro.parallel.transport.WorkerChannel` — a local process
  with inbox/outbox queues by default, or a remote socket worker under
  :mod:`repro.cluster` — so the parent always knows which shard a dead
  worker was holding (and a kill can never corrupt another worker's
  result channel);
* workers emit **heartbeats** from a daemon thread; a silent worker
  (wedged in C code, deadlocked, or gone) is detected and terminated;
* an optional **per-shard deadline** bounds how long any single task
  may run — the supervision signal for soft hangs, where the process
  still heartbeats but the shard never finishes;
* a lost shard is **requeued** onto surviving workers (front of the
  queue — it is the oldest work) up to ``max_shard_retries`` retries;
* dead workers are **respawned** with capped exponential backoff up to
  a ``max_worker_restarts`` budget;
* only when a shard exhausts its retries, or no worker slots remain
  for outstanding work, does the pool escalate to
  :class:`~repro.exceptions.ParallelExecutionError`.

Results stream back in completion order; the engine's merge is keyed
by transition index, so retries and reordering cannot change the final
report — the bit-for-bit parity contract of
``tests/test_parallel_determinism.py`` holds under chaos too
(``tests/test_resilience_chaos.py``).

Task-level *exceptions* (a solver giving up, bad input) are not
retried: they are deterministic library errors, pickled back and
re-raised in the parent exactly like the plain pool did.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..exceptions import ParallelExecutionError
from ..observability import add_counter, get_logger
from .transport import (
    LocalProcessTransport,
    ShardTransport,
    WorkerChannel,
)
from .worker import WorkerConfig

_logger = get_logger("parallel.supervisor")

#: Default worker-respawn budget for one run.
DEFAULT_MAX_WORKER_RESTARTS = 4
#: Default retry budget per shard (initial attempt + this many retries).
DEFAULT_MAX_SHARD_RETRIES = 2
#: Default heartbeat period (seconds); 0/None disables heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 0.25
#: Default tolerated heartbeat silence before a worker is declared
#: wedged. Generous: heartbeats come from a daemon thread, so only a
#: dead process or one stuck in non-GIL-releasing C code goes silent.
DEFAULT_HEARTBEAT_TIMEOUT = 30.0


@dataclass
class _Task:
    """One unit of pool work and its retry accounting."""

    task_id: int
    function: Callable[[Any], dict[str, Any]]
    argument: Any
    attempts: int = 0  # failed attempts so far


class _WorkerHandle:
    """Supervision state wrapped around one worker channel."""

    __slots__ = ("channel", "task", "dispatched_at", "last_seen")

    def __init__(self, channel: WorkerChannel):
        self.channel = channel
        self.task: _Task | None = None
        self.dispatched_at = 0.0
        self.last_seen = time.monotonic()


class SupervisedPool:
    """Run pool tasks under supervision; see the module docstring.

    Args:
        workers: worker-slot count (live workers never exceed it).
        config: the :class:`~repro.parallel.worker.WorkerConfig` every
            worker initialises with.
        max_worker_restarts: total respawn budget across the run.
        max_shard_retries: per-shard retry budget after its initial
            attempt.
        shard_deadline: seconds one task may run before its worker is
            killed and the shard requeued; ``None`` disables.
        heartbeat_interval: worker heartbeat period; 0/``None``
            disables heartbeat supervision.
        heartbeat_timeout: tolerated heartbeat silence before a worker
            is declared wedged.
        backoff_base / backoff_cap: respawn delays follow
            ``min(cap, base * 2**n)`` for the n-th restart.
        poll_interval: parent supervision-loop tick.
        transport: the :class:`~repro.parallel.transport.ShardTransport`
            supplying workers; defaults to local processes
            (:class:`~repro.parallel.transport.LocalProcessTransport`).
            A transport may decline a (re)spawn by returning ``None``
            — the pool then continues on survivors.
    """

    def __init__(self, workers: int, config: WorkerConfig,
                 max_worker_restarts: int = DEFAULT_MAX_WORKER_RESTARTS,
                 max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
                 shard_deadline: float | None = None,
                 heartbeat_interval: float | None =
                 DEFAULT_HEARTBEAT_INTERVAL,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0,
                 poll_interval: float = 0.02,
                 transport: ShardTransport | None = None):
        if workers < 1:
            raise ParallelExecutionError(
                f"pool needs at least one worker slot, got {workers}"
            )
        self._workers = int(workers)
        self._config = config
        self._max_worker_restarts = max(int(max_worker_restarts), 0)
        self._max_shard_retries = max(int(max_shard_retries), 0)
        self._shard_deadline = shard_deadline
        self._heartbeat_interval = heartbeat_interval or None
        self._heartbeat_timeout = float(heartbeat_timeout)
        self._backoff_base = float(backoff_base)
        self._backoff_cap = float(backoff_cap)
        self._poll_interval = float(poll_interval)
        self._transport = transport or LocalProcessTransport(
            config, self._heartbeat_interval, self._workers
        )
        self._live: list[_WorkerHandle] = []
        self._pending: deque[_Task] = deque()
        #: Results rescued from a dead worker's outbox (sent just
        #: before it died), delivered on the next loop turn.
        self._rescued: deque[dict[str, Any]] = deque()
        self._outstanding = 0
        self._restarts_used = 0
        self._respawn_at: list[float] = []
        self._worker_seq = 0
        #: Supervision events of the run, for logs and tests.
        self.restarts = 0
        self.retries = 0

    # -- public API ----------------------------------------------------------

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def run(self, tasks: list[tuple[Callable, Any]],
            ) -> Iterator[dict[str, Any]]:
        """Execute tasks, yielding results in completion order.

        Raises:
            ParallelExecutionError: when retry/respawn budgets are
                exhausted or no workers remain for outstanding work.
            Exception: any task-level exception a worker raised,
                re-raised verbatim (deterministic failures are not
                retried).
        """
        work = [
            _Task(task_id, function, argument)
            for task_id, (function, argument) in enumerate(tasks)
        ]
        if not work:
            return
        self._pending = deque(work)
        self._outstanding = len(work)
        try:
            for _ in range(min(self._workers, len(work))):
                self._spawn()
            while self._outstanding > 0:
                self._spawn_due()
                self._dispatch()
                delivered = False
                for result in self._drain_messages():
                    delivered = True
                    self._outstanding -= 1
                    yield result
                self._check_workers()
                while self._rescued:
                    delivered = True
                    self._outstanding -= 1
                    yield self._rescued.popleft()
                self._check_capacity()
                if not delivered:
                    time.sleep(self._poll_interval)
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop every worker; graceful first, then terminate."""
        for handle in self._live:
            handle.channel.stop()
        deadline = time.monotonic() + 1.0
        for handle in self._live:
            handle.channel.join(max(deadline - time.monotonic(), 0.05))
            handle.channel.close()
        self._live = []
        self._respawn_at = []

    # -- supervision internals -----------------------------------------------

    def _spawn(self) -> bool:
        slot = self._worker_seq
        self._worker_seq += 1
        channel = self._transport.open_channel(slot)
        if channel is None:
            _logger.warning(
                "transport has no worker for slot %d; continuing with "
                "%d live worker(s)", slot, len(self._live),
            )
            return False
        self._live.append(_WorkerHandle(channel))
        return True

    def _spawn_due(self) -> None:
        """Start respawns whose backoff delay has elapsed."""
        if not self._respawn_at:
            return
        now = time.monotonic()
        due = [t for t in self._respawn_at if t <= now]
        self._respawn_at = [t for t in self._respawn_at if t > now]
        for _ in due:
            if self._spawn():
                self.restarts += 1
                add_counter("parallel_worker_restarts_total")
                _logger.info("respawned a worker (%d/%d restarts used)",
                             self.restarts, self._max_worker_restarts)

    def _dispatch(self) -> None:
        for handle in self._live:
            if not self._pending:
                return
            if handle.task is None and handle.channel.alive():
                task = self._pending.popleft()
                handle.task = task
                handle.dispatched_at = time.monotonic()
                handle.channel.send_task(task.task_id, task.attempts,
                                         task.function, task.argument)

    def _drain_messages(self) -> list[dict[str, Any]]:
        """Pull every queued worker message; return completed results."""
        results = []
        for handle in list(self._live):
            results.extend(self._drain_handle(handle))
        return results

    def _drain_handle(self, handle: _WorkerHandle,
                      ) -> list[dict[str, Any]]:
        results = []
        for message in handle.channel.poll():
            handle.last_seen = time.monotonic()
            kind = message[0]
            if kind == "heartbeat":
                continue
            if kind == "result":
                _, task_id, result = message
                if handle.task is not None and \
                        handle.task.task_id == task_id:
                    handle.task = None
                results.append(result)
            elif kind == "error":
                raise pickle.loads(message[2])
            elif kind == "init_error":
                raise ParallelExecutionError(
                    "a worker failed to initialise"
                ) from pickle.loads(message[1])
        return results

    def _check_workers(self) -> None:
        """Reap dead, over-deadline, and heartbeat-silent workers."""
        now = time.monotonic()
        for handle in list(self._live):
            if not handle.channel.alive():
                # A final result may have been sent just before death.
                self._rescued.extend(self._drain_handle(handle))
                self._reap(handle, "worker exited unexpectedly",
                           kind="exited")
            elif (handle.task is not None
                  and self._shard_deadline is not None
                  and now - handle.dispatched_at > self._shard_deadline):
                handle.channel.kill()
                self._reap(
                    handle,
                    f"shard exceeded its {self._shard_deadline:g}s "
                    "deadline",
                    kind="deadline",
                )
            elif (self._heartbeat_interval is not None
                  and now - handle.last_seen > self._heartbeat_timeout):
                handle.channel.kill()
                self._reap(
                    handle,
                    f"no heartbeat for {self._heartbeat_timeout:g}s",
                    kind="heartbeat",
                )

    def _reap(self, handle: _WorkerHandle, reason: str,
              kind: str = "exited") -> None:
        """Remove a failed worker: requeue its shard, plan a respawn."""
        self._live.remove(handle)
        handle.channel.notify_lost(kind)
        handle.channel.close()
        task = handle.task
        _logger.warning("%s lost: %s%s", handle.channel.describe(),
                        reason,
                        f" (held shard {task.task_id})" if task else "")
        if task is not None:
            task.attempts += 1
            if task.attempts > self._max_shard_retries:
                raise ParallelExecutionError(
                    f"shard {task.task_id} failed {task.attempts} "
                    f"time(s) — last worker lost because {reason}; "
                    f"retry budget ({self._max_shard_retries}) "
                    "exhausted. Rerun with checkpoint_path to resume "
                    "completed work"
                )
            self.retries += 1
            add_counter("parallel_shard_retries_total")
            self._pending.appendleft(task)
        needed = len(self._pending) > 0 or any(
            h.task is not None for h in self._live
        )
        if needed and len(self._live) + len(self._respawn_at) \
                < self._workers:
            if self._restarts_used < self._max_worker_restarts:
                delay = min(
                    self._backoff_cap,
                    self._backoff_base * (2 ** self._restarts_used),
                )
                self._restarts_used += 1
                self._respawn_at.append(time.monotonic() + delay)
                _logger.info("scheduling worker respawn in %.3fs",
                             delay)
            else:
                _logger.warning(
                    "worker restart budget (%d) exhausted; continuing "
                    "with %d live worker(s)",
                    self._max_worker_restarts, len(self._live),
                )

    def _check_capacity(self) -> None:
        """Escalate when outstanding work has no worker left to run on."""
        if self._outstanding <= 0:
            return
        if self._live or self._respawn_at:
            return
        raise ParallelExecutionError(
            f"{self._outstanding} shard(s) outstanding but every "
            "worker is gone and the restart budget "
            f"({self._max_worker_restarts}) is exhausted. Rerun with "
            "checkpoint_path to resume completed work"
        )
