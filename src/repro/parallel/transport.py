"""Transport abstraction between the supervised pool and its workers.

The supervisor's retry/requeue/deadline machinery only ever needs five
things from a worker: dispatch a task, poll for messages, check
liveness, kill, and release. :class:`WorkerChannel` captures exactly
that, and :class:`ShardTransport` is the factory producing channels —
one per pool slot.

Two transports exist:

* :class:`LocalProcessTransport` (here) — the original
  ``multiprocessing`` pool: one process per slot with private inbox
  and outbox queues. This is the default and preserves the historical
  behaviour of :class:`~repro.parallel.supervisor.SupervisedPool`
  exactly.
* ``repro.cluster.coordinator.SocketShardTransport`` — adopts remote
  ``cad-detect cluster-worker`` processes registered over TCP and
  frames tasks with :mod:`repro.cluster.protocol`.

The message contract is shared by both: :meth:`WorkerChannel.poll`
yields the same tuples the multiprocessing outbox always carried —
``("heartbeat",)``, ``("result", task_id, result)``,
``("error", task_id, pickled_exception)``, and
``("init_error", pickled_exception)`` — so supervision logic is
transport-blind.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import pickle
import queue as queue_module
import threading
from typing import Any, Callable

from ..exceptions import ParallelExecutionError
from ..linalg.solvers import _thread_budget
from .worker import WorkerConfig, init_worker, set_task_attempt


def encode_error(error: BaseException) -> bytes:
    """Pickle an exception for the result channel, downgrading
    unpicklable ones to a summary (a channel must never choke on them).
    """
    try:
        payload = pickle.dumps(error)
        pickle.loads(payload)  # round-trip: some exceptions lie
        return payload
    except Exception:
        return pickle.dumps(ParallelExecutionError(
            f"worker task failed with unpicklable "
            f"{type(error).__name__}: {error}"
        ))


class WorkerChannel(abc.ABC):
    """Parent-side handle on one worker, whatever its transport."""

    #: Pool slot the channel was opened for.
    slot: int

    @abc.abstractmethod
    def send_task(self, task_id: int, attempt: int,
                  function: Callable[[Any], dict[str, Any]],
                  argument: Any) -> None:
        """Dispatch one task to the worker."""

    @abc.abstractmethod
    def poll(self) -> list[tuple]:
        """Drain currently available worker messages (non-blocking)."""

    @abc.abstractmethod
    def alive(self) -> bool:
        """Whether the worker can still deliver results."""

    @abc.abstractmethod
    def kill(self) -> None:
        """Hard-stop the worker (dead or declared hung)."""

    @abc.abstractmethod
    def stop(self) -> None:
        """Ask the worker to finish up (graceful shutdown)."""

    @abc.abstractmethod
    def join(self, timeout: float) -> None:
        """Wait briefly for a stopped worker to wind down."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release parent-side channel resources."""

    def describe(self) -> str:
        """Human-readable identity for supervision logs."""
        return f"slot {self.slot}"

    def notify_lost(self, kind: str) -> None:
        """Supervision hook: the pool reaped this worker.

        ``kind`` is ``"exited"`` (process/connection gone),
        ``"deadline"`` (shard overran its deadline), or
        ``"heartbeat"`` (heartbeat-idle deadline — the half-open
        signature on remote transports). The default does nothing;
        transports override it to keep fault-class counters.
        """


class ShardTransport(abc.ABC):
    """Factory for :class:`WorkerChannel` instances."""

    @abc.abstractmethod
    def open_channel(self, slot: int) -> WorkerChannel | None:
        """Provide a worker for ``slot``.

        May return ``None`` when no worker is currently available (a
        remote transport with an empty registration pool); the
        supervisor then continues on survivors and escalates only when
        nobody is left.
        """

    def close(self) -> None:  # pragma: no cover - optional hook
        """Release transport-wide resources."""


def _worker_main(slot: int, config: WorkerConfig, inbox, outbox,
                 heartbeat_interval: float | None, threads: int) -> None:
    """Worker process body: cap block CG at ``threads`` threads, init
    once, then execute tasks until the ``None`` sentinel arrives."""
    # The solvers read the variable on every call (``_thread_budget``).
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    try:
        init_worker(config)
    except BaseException as error:  # noqa: BLE001 - shipped to parent
        outbox.put(("init_error", encode_error(error)))
        return
    stop = threading.Event()
    if heartbeat_interval:
        def _beat() -> None:
            while not stop.wait(heartbeat_interval):
                try:
                    outbox.put(("heartbeat",))
                except Exception:
                    return
        threading.Thread(target=_beat, daemon=True,
                         name=f"heartbeat-{slot}").start()
    while True:
        message = inbox.get()
        if message is None:
            stop.set()
            return
        task_id, attempt, function, argument = message
        set_task_attempt(attempt)
        try:
            result = function(argument)
        except BaseException as error:  # noqa: BLE001 - shipped to parent
            outbox.put(("error", task_id, encode_error(error)))
        else:
            outbox.put(("result", task_id, result))


class LocalProcessChannel(WorkerChannel):
    """One ``multiprocessing.Process`` with inbox/outbox queues."""

    def __init__(self, slot: int, process, inbox, outbox):
        self.slot = slot
        self.process = process
        self.inbox = inbox
        self.outbox = outbox

    def send_task(self, task_id, attempt, function, argument) -> None:
        self.inbox.put((task_id, attempt, function, argument))

    def poll(self) -> list[tuple]:
        messages = []
        while True:
            try:
                messages.append(self.outbox.get_nowait())
            except queue_module.Empty:
                break
            except (EOFError, OSError):
                break  # channel torn down mid-kill; liveness check reaps
        return messages

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        self.process.terminate()

    def stop(self) -> None:
        try:
            self.inbox.put_nowait(None)
        except Exception:
            pass

    def join(self, timeout: float) -> None:
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)

    def close(self) -> None:
        for channel in (self.inbox, self.outbox):
            try:
                channel.close()
                channel.cancel_join_thread()
            except Exception:
                pass

    def describe(self) -> str:
        return f"process worker {self.slot} (pid {self.process.pid})"


class LocalProcessTransport(ShardTransport):
    """Spawn one local worker process per channel (the default); each
    of the pool's ``workers`` gets an equal share (at least one) of the
    parent's block-CG threads."""

    def __init__(self, config: WorkerConfig,
                 heartbeat_interval: float | None, workers: int):
        self._config = config
        self._heartbeat_interval = heartbeat_interval
        self._threads = max(1, _thread_budget() // workers)
        self._context = multiprocessing.get_context()

    def open_channel(self, slot: int) -> LocalProcessChannel:
        inbox = self._context.Queue()
        outbox = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(slot, self._config, inbox, outbox,
                  self._heartbeat_interval, self._threads),
            name=f"repro-worker-{slot}",
            daemon=True,
        )
        process.start()
        return LocalProcessChannel(slot, process, inbox, outbox)
