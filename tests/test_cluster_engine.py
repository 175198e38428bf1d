"""Remote shard execution: registration, parity, failure healing.

The contract under test is the tentpole one: a coordinator plus remote
``cluster-worker`` processes produce **bit-for-bit** the same scores as
a serial ``detect()`` — including when a worker is killed mid-run and
its shards requeue onto survivors. In-process worker threads keep the
fast cases cheap; the kill scenario uses real subprocesses (a chaos
kill is ``os._exit``, which would take the test process with it).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import CadDetector, FallbackPolicy, ParallelCadDetector
from repro.cluster import ClusterCoordinator, ClusterEngine, run_worker
from repro.cluster import protocol
from repro.cluster.coordinator import SocketShardTransport
from repro.cluster.worker import _configure_state
from repro.exceptions import ParallelExecutionError
from repro.parallel import SHARD_MODES, SharedGraphSequence
from repro.parallel import worker as parallel_worker
from repro.resilience.chaos import ChaosSpec

from .test_parallel_determinism import (
    assert_reports_bitwise_equal,
    disconnected_sequence,
    make_sequence,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


@contextlib.contextmanager
def thread_workers(coordinator, count: int, max_runs: int = 1):
    """In-process workers — cheap, but unkillable (shared process)."""
    threads = []
    for index in range(count):
        thread = threading.Thread(
            target=run_worker,
            args=(coordinator.host, coordinator.port),
            kwargs={"worker_id": f"thread-{index}",
                    "max_runs": max_runs},
            daemon=True, name=f"cluster-worker-{index}",
        )
        thread.start()
        threads.append(thread)
    coordinator.wait_for_workers(count, timeout=30)
    try:
        yield
    finally:
        coordinator.close()
        for thread in threads:
            thread.join(timeout=10)


@contextlib.contextmanager
def process_workers(coordinator, count: int):
    """Real ``cad-detect cluster-worker`` subprocesses via the CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cluster-worker",
             coordinator.host, str(coordinator.port),
             "--worker-id", f"proc-{index}"],
            env=env,
        )
        for index in range(count)
    ]
    coordinator.wait_for_workers(count, timeout=60)
    try:
        yield procs
    finally:
        coordinator.close()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)


class TestParity:
    def test_transition_sharding_is_bitwise_serial(self):
        graph = make_sequence(num_snapshots=5)
        serial = CadDetector(
            method="exact", seed=13, seed_mode="content",
        ).detect(graph, anomalies_per_transition=3)
        with ClusterCoordinator() as coordinator, \
                thread_workers(coordinator, 2):
            remote = ClusterEngine(
                coordinator, workers=2, min_workers=2,
                shard_by="transition", chunk_size=1,
                method="exact", seed=13,
            ).detect(graph, anomalies_per_transition=3)
        assert_reports_bitwise_equal(serial, remote)

    def test_approx_backend_is_bitwise_serial(self):
        graph = make_sequence(num_snapshots=4)
        serial = CadDetector(
            method="approx", k=12, seed=21, seed_mode="content",
        ).detect(graph, anomalies_per_transition=3)
        with ClusterCoordinator() as coordinator, \
                thread_workers(coordinator, 2):
            remote = ClusterEngine(
                coordinator, workers=2, min_workers=2,
                shard_by="transition", method="approx", k=12, seed=21,
            ).detect(graph, anomalies_per_transition=3)
        assert_reports_bitwise_equal(serial, remote)

    def test_component_sharding_matches_local_engine_bitwise(self):
        """On a disconnected exact sequence every ``shard_by`` value runs
        the transition axis remotely too: with 1, 2 and 4 workers the
        remote report equals serial and the local engine bit for bit.
        Worker processes, not threads: runs of different sizes adopt
        different workers, and in-process workers share one module
        state that a finishing run clears."""
        graph = disconnected_sequence()
        serial = CadDetector(method="exact", seed=3).detect(
            graph, anomalies_per_transition=3
        )
        local = ParallelCadDetector(
            workers=2, shard_by="component", method="exact", seed=3,
        ).detect(graph, anomalies_per_transition=3)
        runs = [(workers, shard_by) for workers in (1, 2, 4)
                for shard_by in SHARD_MODES]
        with ClusterCoordinator() as coordinator, \
                process_workers(coordinator, 4):
            for workers, shard_by in runs:
                remote = ClusterEngine(
                    coordinator, workers=workers, min_workers=workers,
                    shard_by=shard_by, method="exact", seed=3,
                ).detect(graph, anomalies_per_transition=3)
                assert_reports_bitwise_equal(serial, remote)
                assert_reports_bitwise_equal(local, remote)

    def test_workers_are_reused_across_runs(self):
        """RELEASE parks workers back in the ready pool; a second run
        adopts them under a fresh run token with full parity."""
        graph = make_sequence(num_snapshots=4)
        serial = CadDetector(
            method="exact", seed=7, seed_mode="content",
        ).detect(graph, anomalies_per_transition=3)
        with ClusterCoordinator() as coordinator, \
                thread_workers(coordinator, 2, max_runs=2):
            engine = ClusterEngine(
                coordinator, workers=2, min_workers=2,
                shard_by="transition", method="exact", seed=7,
            )
            first = engine.detect(graph, anomalies_per_transition=3)
            assert coordinator.ready_count() == 2
            second = engine.detect(graph, anomalies_per_transition=3)
        assert_reports_bitwise_equal(serial, first)
        assert_reports_bitwise_equal(serial, second)


class TestFailure:
    def test_killed_worker_requeues_onto_survivor_bitwise(self):
        """A worker SIGKILLed mid-shard (chaos ``os._exit``) costs
        nothing but time: the supervisor requeues its shard onto the
        survivor and the merged result still matches serial exactly."""
        graph = make_sequence(num_snapshots=5)
        serial = CadDetector(
            method="exact", seed=13, seed_mode="content",
        ).detect(graph, anomalies_per_transition=3)
        chaos = ChaosSpec(kill_transitions=(1,), attempts=1)
        with ClusterCoordinator() as coordinator, \
                process_workers(coordinator, 2) as procs:
            remote = ClusterEngine(
                coordinator, workers=2, min_workers=2,
                shard_by="transition", chunk_size=1,
                method="exact", seed=13, chaos=chaos,
            ).detect(graph, anomalies_per_transition=3)
            # Exactly one worker died (first attempt at transition 1).
            exits = [proc.poll() for proc in procs]
            assert exits.count(ChaosSpec().exit_code) == 1
        assert_reports_bitwise_equal(serial, remote)

    def test_permanent_fault_escalates(self):
        """A fault that survives every retry exhausts the shard budget
        and surfaces as ParallelExecutionError, not a hang."""
        graph = make_sequence(num_snapshots=4)
        chaos = ChaosSpec(kill_transitions=(1,), attempts=None)
        with ClusterCoordinator() as coordinator, \
                process_workers(coordinator, 2):
            engine = ClusterEngine(
                coordinator, workers=2, min_workers=2,
                shard_by="transition", chunk_size=1,
                method="exact", seed=13, chaos=chaos,
                max_shard_retries=1,
            )
            with pytest.raises(ParallelExecutionError):
                engine.detect(graph, anomalies_per_transition=3)

    def test_registration_timeout_escalates(self):
        graph = make_sequence(num_snapshots=3)
        with ClusterCoordinator() as coordinator:
            engine = ClusterEngine(
                coordinator, workers=2, min_workers=2,
                registration_timeout=0.2, seed=1,
            )
            with pytest.raises(ParallelExecutionError,
                               match="registered"):
                engine.detect(graph, anomalies_per_transition=3)


class TestCoordinator:
    def test_ready_pool_inventory(self):
        with ClusterCoordinator() as coordinator, \
                thread_workers(coordinator, 2):
            inventory = coordinator.workers()
            assert sorted(w["worker_id"] for w in inventory) \
                == ["thread-0", "thread-1"]
            for worker in inventory:
                assert worker["pid"] == os.getpid()

    def test_default_pool_size_tracks_registrations(self):
        with ClusterCoordinator() as coordinator, \
                thread_workers(coordinator, 2):
            engine = ClusterEngine(coordinator, min_workers=1)
            assert engine.workers == 2


class _ConfigCaptured(Exception):
    """Stops an engine run once its worker config exists."""


def shipped_worker_config(engine, graph):
    """The WorkerConfig an engine run hands its transport (no pool
    starts: the transport hook raises once it has the config)."""
    captured = []

    def capture(config, graph, pool_size):
        captured.append(config)
        raise _ConfigCaptured

    engine._make_transport = capture
    with pytest.raises(_ConfigCaptured):
        engine.score_sequence(graph)
    return captured[0]


class TestWorkerCalculator:
    @pytest.mark.parametrize("side", ["local", "remote"])
    def test_workers_rebuild_the_parent_calculator(self, side):
        """Every backend option reaches a worker, local or remote: the
        installed calculator's spec is the engine's, method resolved."""
        graph = make_sequence(num_snapshots=3)
        engine = ParallelCadDetector(
            workers=2, shard_by="transition", method="approx", k=12,
            seed=5, solver=FallbackPolicy(cg_retries=1), exact_limit=40,
            tol=1e-6, factor_cache="private", cache_budget_mb=8.0,
            delta_budget=3,
        )
        config = shipped_worker_config(engine, graph)
        expected = {
            **engine.calculator.spec(),
            "method": engine.calculator.resolve_method(graph.num_nodes),
        }
        if side == "local":
            store = SharedGraphSequence.publish(graph)
            try:
                parallel_worker.init_worker(dataclasses.replace(
                    config, sequence=store.spec, unregister_shm=False,
                    collect_metrics=False,
                ))
                installed = parallel_worker._STATE["calculator"].spec()
            finally:
                attached = parallel_worker._STATE.get("attached")
                parallel_worker._STATE.clear()
                if attached is not None:
                    attached.close()
                store.cleanup()
        else:
            with ClusterCoordinator() as coordinator:
                transport = SocketShardTransport(coordinator, config,
                                                 graph, None)
            [(kind, document)] = protocol.FrameDecoder().feed(
                transport._configure_frame
            )
            assert kind == protocol.CONFIGURE
            try:
                _configure_state(document)
                installed = parallel_worker._STATE["calculator"].spec()
            finally:
                parallel_worker._STATE.clear()
        assert installed == expected
