#!/usr/bin/env python
"""Cluster smoke gate: remote workers must be invisible in the scores.

Four gates over real processes, all required to land **bit-for-bit**
identical to a serial baseline:

1. **parity** — a coordinator plus two ``cad-detect cluster-worker``
   subprocesses score a sharded detection over localhost sockets; the
   merged report must equal serial ``detect()`` byte for byte (same
   content-keyed seeding, same merge order).
2. **worker-kill** — the same topology, but one worker subprocess is
   SIGKILLed mid-run (the run is stretched with a deterministic
   straggler plan so "mid-run" is not a race). The supervised pool
   requeues the dead worker's shards onto the survivor and the result
   must still equal the serial baseline byte for byte. The gate also
   requires that the kill actually landed mid-run (the victim died by
   SIGKILL, and the survivor finished alone).
3. **corrupt-frame** — the workers dial the coordinator through a
   seeded :class:`~repro.resilience.netchaos.ChaosProxy` that flips
   bytes inside one worker's result stream. CRC-32 must catch the
   damage, the coordinator must evict only that worker connection
   (``cluster_corrupt_frames_total``), the shard must requeue, and the
   scores must still match serial bit for bit. The run's metrics
   document must validate against the checked-in schema.
4. **net-chaos** — the full network-fault scenario: latency plus
   seeded corruption through the proxy, the coordinator subprocess
   SIGKILLed *mid-run* and relaunched on the same port behind a timed
   partition, workers reconnecting with backoff and re-registering.
   The relaunched coordinator's final scores (shipped as ``.npz``)
   must equal the serial baseline byte for byte, its metrics document
   must validate, and ``cluster_reconnects_total`` /
   ``cluster_corrupt_frames_total`` must be present.

Usage::

    PYTHONPATH=src python scripts/cluster_smoke.py [gate ...]
    PYTHONPATH=src python scripts/cluster_smoke.py --net-chaos

where ``gate`` is any of ``parity``, ``worker-kill``,
``corrupt-frame``, ``net-chaos`` (default: all); ``--net-chaos`` is
shorthand for the last one. ``--role coordinator`` is internal — the
net-chaos gate uses it to run a killable coordinator in a subprocess.
Exit code 0 when the selected gates hold, 1 with the failure on
stderr otherwise. Stdlib + numpy/scipy only; CI runs this as the
``cluster-smoke`` and ``net-chaos-smoke`` jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import validate_metrics  # noqa: E402  (sibling script, same dir)

from repro import CadDetector, DynamicGraph  # noqa: E402
from repro.cluster import ClusterCoordinator, ClusterEngine  # noqa: E402
from repro.cluster import protocol  # noqa: E402
from repro.graphs import perturb_weights, random_sparse_graph  # noqa: E402
from repro.observability import (  # noqa: E402
    build_metrics_document,
    enable,
)
from repro.resilience.chaos import ChaosSpec  # noqa: E402
from repro.resilience.netchaos import (  # noqa: E402
    ChaosProxy,
    NetChaosSpec,
    NetFault,
)

SEED = 13
WORKERS = 2


def make_sequence(num_snapshots=6, n=60) -> DynamicGraph:
    snapshot = random_sparse_graph(n, mean_degree=4.0, seed=SEED,
                                   connected=True)
    snapshots = [snapshot]
    for step in range(num_snapshots - 1):
        snapshots.append(perturb_weights(
            snapshots[-1], relative_noise=0.15, seed=SEED + step + 1,
        ))
    return DynamicGraph(snapshots)


def serial_baseline(graph: DynamicGraph):
    return CadDetector(method="exact", seed=SEED).detect(
        graph, anomalies_per_transition=3)


def assert_bitwise_equal(remote, serial, gate: str) -> None:
    assert remote.threshold == serial.threshold, \
        f"[{gate}] thresholds differ"
    for ours, theirs in zip(remote.transitions, serial.transitions):
        assert ours.anomalous_edges == theirs.anomalous_edges, gate
        assert ours.anomalous_nodes == theirs.anomalous_nodes, gate
        assert np.array_equal(ours.scores.edge_scores,
                              theirs.scores.edge_scores), \
            f"[{gate}] edge scores diverged at transition {ours.index}"
        assert np.array_equal(ours.scores.node_scores,
                              theirs.scores.node_scores), \
            f"[{gate}] node scores diverged at transition {ours.index}"
    print(f"[{gate}] bit-for-bit parity over "
          f"{len(remote.transitions)} transitions")


def scores_arrays(report) -> dict[str, np.ndarray]:
    """The report's score surface as named arrays (npz interchange)."""
    arrays = {"threshold": np.asarray(report.threshold)}
    for transition in report.transitions:
        arrays[f"edge_{transition.index}"] = \
            transition.scores.edge_scores
        arrays[f"node_{transition.index}"] = \
            transition.scores.node_scores
    return arrays


def assert_npz_matches_serial(path: Path, serial, gate: str) -> None:
    expected = scores_arrays(serial)
    with np.load(path) as loaded:
        assert set(loaded.files) == set(expected), \
            f"[{gate}] npz keys {sorted(loaded.files)} != " \
            f"{sorted(expected)}"
        for key, reference in expected.items():
            shipped = loaded[key]
            assert shipped.dtype == reference.dtype \
                and shipped.tobytes() == reference.tobytes(), \
                f"[{gate}] {key} diverged from the serial baseline"
    print(f"[{gate}] bit-for-bit parity over "
          f"{len(serial.transitions)} transitions (npz)")


def validate_metrics_file(path: Path, required: list[str],
                          gate: str) -> None:
    argv = [str(path)]
    for name in required:
        argv += ["--require", name]
    assert validate_metrics.main(argv) == 0, \
        f"[{gate}] metrics document failed validation"


def register_frame_bytes(worker_id: str) -> int:
    """Wire size of a worker's REGISTER frame (max-width pid), so
    byte-offset faults land on run traffic, never mid-registration."""
    return len(protocol.pack_frame(protocol.REGISTER, {
        "worker_id": worker_id,
        "pid": 2 ** 22,
        "host": socket.gethostname(),
        "reconnect": False,
    }))


def free_port() -> int:
    placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    placeholder.bind(("127.0.0.1", 0))
    port = placeholder.getsockname()[1]
    placeholder.close()
    return port


def spawn_workers(host: str, port: int, count: int,
                  extra_args: tuple[str, ...] = (),
                  prefix: str = "smoke") -> list[subprocess.Popen]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    return [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cluster-worker",
             host, str(port), "--worker-id", f"{prefix}-{index}",
             *extra_args],
            env=env,
        )
        for index in range(count)
    ]


def reap(coordinator: ClusterCoordinator,
         procs: list[subprocess.Popen]) -> None:
    coordinator.close()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def gate_parity() -> None:
    graph = make_sequence()
    serial = serial_baseline(graph)
    with ClusterCoordinator() as coordinator:
        procs = spawn_workers(coordinator.host, coordinator.port,
                              WORKERS)
        try:
            coordinator.wait_for_workers(WORKERS, timeout=60)
            remote = ClusterEngine(
                coordinator, workers=WORKERS, min_workers=WORKERS,
                shard_by="transition", chunk_size=1,
                method="exact", seed=SEED,
            ).detect(graph, anomalies_per_transition=3)
        finally:
            reap(coordinator, procs)
    assert_bitwise_equal(remote, serial, "parity")


def gate_worker_kill() -> None:
    graph = make_sequence()
    serial = serial_baseline(graph)
    # Stretch every shard so the SIGKILL below lands mid-run by
    # construction, not by racing the scheduler.
    chaos = ChaosSpec(slow_transitions=tuple(range(len(graph) - 1)),
                      slow_seconds=0.4, attempts=None)
    with ClusterCoordinator() as coordinator:
        procs = spawn_workers(coordinator.host, coordinator.port,
                              WORKERS)
        try:
            coordinator.wait_for_workers(WORKERS, timeout=60)
            pids = sorted(w["pid"] for w in coordinator.workers())
            engine = ClusterEngine(
                coordinator, workers=WORKERS, min_workers=WORKERS,
                shard_by="transition", chunk_size=1,
                method="exact", seed=SEED, chaos=chaos,
            )
            outcome: dict = {}

            def run():
                outcome["report"] = engine.detect(
                    graph, anomalies_per_transition=3)

            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(1.0)  # well inside the stretched run
            assert thread.is_alive(), \
                "[worker-kill] run finished before the kill; " \
                "slow_seconds too small"
            victim = pids[0]
            os.kill(victim, signal.SIGKILL)
            print(f"[worker-kill] SIGKILLed worker pid {victim} "
                  "mid-run")
            thread.join(timeout=300)
            assert not thread.is_alive(), \
                "[worker-kill] run did not finish after the kill"
            statuses = {proc.pid: proc.wait(timeout=10)
                        for proc in procs if proc.pid == victim}
            assert statuses.get(victim) == -signal.SIGKILL, \
                f"[worker-kill] victim exit {statuses}, expected SIGKILL"
        finally:
            reap(coordinator, procs)
    assert_bitwise_equal(outcome["report"], serial, "worker-kill")
    print("[worker-kill] survivor absorbed the dead worker's shards")


def gate_corrupt_frame() -> None:
    """Seeded byte flips inside one worker's stream: CRC eviction,
    shard requeue, bit-for-bit parity, schema-valid metrics."""
    graph = make_sequence()
    serial = serial_baseline(graph)
    registry = enable()
    spec = NetChaosSpec(faults=(
        NetFault(kind="corrupt", connection=0, direction="up",
                 after_bytes=register_frame_bytes("chaos-0") + 200,
                 flips=12),
    ))
    with ClusterCoordinator() as coordinator, \
            ChaosProxy(coordinator.host, coordinator.port,
                       spec=spec, seed=SEED) as proxy:
        procs = spawn_workers(
            proxy.host, proxy.port, WORKERS, prefix="chaos",
            extra_args=("--reconnect-attempts", "20",
                        "--reconnect-backoff", "0.1"),
        )
        try:
            coordinator.wait_for_workers(WORKERS, timeout=60)
            engine = ClusterEngine(
                coordinator, workers=WORKERS, min_workers=WORKERS,
                shard_by="transition", chunk_size=1,
                method="exact", seed=SEED,
                heartbeat_interval=0.1, heartbeat_timeout=10.0,
            )
            remote = engine.detect(graph, anomalies_per_transition=3)
        finally:
            reap(coordinator, procs)
        assert proxy.stats()["corrupt_events"] >= 1, \
            "[corrupt-frame] the corruption fault never fired"
    assert_bitwise_equal(remote, serial, "corrupt-frame")
    corrupted = sum(
        entry["value"]
        for entry in registry.state()["counters"]
        if entry["name"] == "cluster_corrupt_frames_total"
    )
    assert corrupted >= 1, \
        "[corrupt-frame] coordinator never counted the corrupt frame"
    print(f"[corrupt-frame] evicted {int(corrupted)} corrupt "
          "connection(s); run survived")
    document = build_metrics_document(registry,
                                      engine.last_worker_metrics)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "metrics.json"
        path.write_text(json.dumps(document))
        validate_metrics_file(
            path, ["cluster_corrupt_frames_total"], "corrupt-frame",
        )


def run_coordinator_role(args) -> int:
    """Internal: a killable coordinator process for the net-chaos gate.

    Binds the requested port (retrying while a crashed predecessor's
    address drains), waits for the worker fleet, runs one detection
    (optionally stretched so a SIGKILL can land mid-run), and ships
    the scores as ``.npz`` plus an optional metrics document.
    """
    registry = enable()
    graph = make_sequence()
    deadline = time.monotonic() + 30.0
    while True:
        try:
            coordinator = ClusterCoordinator(port=args.port)
            break
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)
    chaos = None
    if args.slow_seconds > 0:
        chaos = ChaosSpec(
            slow_transitions=tuple(range(len(graph) - 1)),
            slow_seconds=args.slow_seconds, attempts=None,
        )
    with coordinator:
        coordinator.wait_for_workers(WORKERS, timeout=120)
        print(f"[coordinator:{os.getpid()}] {WORKERS} workers ready",
              flush=True)
        engine = ClusterEngine(
            coordinator, workers=WORKERS, min_workers=WORKERS,
            shard_by="transition", chunk_size=1,
            method="exact", seed=SEED, chaos=chaos,
            heartbeat_interval=0.2, heartbeat_timeout=15.0,
        )
        if args.started_file:
            Path(args.started_file).touch()
        report = engine.detect(graph, anomalies_per_transition=3)
    np.savez(args.out, **scores_arrays(report))
    if args.metrics_out:
        document = build_metrics_document(registry,
                                          engine.last_worker_metrics)
        Path(args.metrics_out).write_text(json.dumps(document))
    print(f"[coordinator:{os.getpid()}] scores -> {args.out}",
          flush=True)
    return 0


def spawn_coordinator(port: int, slow_seconds: float, out: Path,
                      metrics_out: Path | None = None,
                      started_file: Path | None = None,
                      ) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    command = [sys.executable, str(Path(__file__).resolve()),
               "--role", "coordinator", "--port", str(port),
               "--slow-seconds", str(slow_seconds),
               "--out", str(out)]
    if metrics_out is not None:
        command += ["--metrics-out", str(metrics_out)]
    if started_file is not None:
        command += ["--started-file", str(started_file)]
    return subprocess.Popen(command, env=env)


def gate_net_chaos() -> None:
    """Latency + corruption + a mid-run coordinator SIGKILL and
    restart behind a timed partition; the relaunched coordinator must
    land bit-for-bit on the serial baseline."""
    graph = make_sequence()
    serial = serial_baseline(graph)
    port = free_port()
    # Connections 0/1 are the workers' first dials. Failed dials while
    # the coordinator is down never allocate an index, so connection 2
    # is the first link that reaches the *relaunched* coordinator —
    # corrupt its run traffic to prove eviction works mid-recovery.
    spec = NetChaosSpec(
        latency=0.002,
        faults=(
            NetFault(kind="corrupt", connection=2, direction="up",
                     after_bytes=register_frame_bytes("chaos-0") + 600,
                     flips=12),
        ),
    )
    with tempfile.TemporaryDirectory() as scratch_dir, \
            ChaosProxy("127.0.0.1", port, spec=spec,
                       seed=SEED) as proxy:
        scratch = Path(scratch_dir)
        doomed_out = scratch / "doomed.npz"
        final_out = scratch / "final.npz"
        metrics_out = scratch / "metrics.json"
        started = scratch / "run-started"
        doomed = spawn_coordinator(port, slow_seconds=0.5,
                                   out=doomed_out,
                                   started_file=started)
        procs = spawn_workers(
            proxy.host, proxy.port, WORKERS, prefix="chaos",
            extra_args=("--reconnect-attempts", "40",
                        "--reconnect-backoff", "0.1"),
        )
        replacement = None
        try:
            deadline = time.monotonic() + 120.0
            while not started.exists():
                assert doomed.poll() is None, \
                    "[net-chaos] doomed coordinator exited early"
                assert time.monotonic() < deadline, \
                    "[net-chaos] first run never started"
                time.sleep(0.05)
            time.sleep(1.0)  # well inside the stretched run
            assert doomed.poll() is None, \
                "[net-chaos] run finished before the kill; " \
                "slow_seconds too small"
            doomed.kill()  # SIGKILL: no SHUTDOWN frames, no cleanup
            doomed.wait(timeout=10)
            print("[net-chaos] SIGKILLed coordinator mid-run",
                  flush=True)
            proxy.partition(duration=1.0)
            replacement = spawn_coordinator(
                port, slow_seconds=0.1, out=final_out,
                metrics_out=metrics_out,
            )
            assert replacement.wait(timeout=300) == 0, \
                "[net-chaos] relaunched coordinator failed"
        finally:
            if replacement is not None and replacement.poll() is None:
                replacement.kill()
            for proc in procs:
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10)
        assert not doomed_out.exists(), \
            "[net-chaos] the doomed coordinator finished its run"
        codes = [proc.returncode for proc in procs]
        assert codes == [0] * WORKERS, \
            f"[net-chaos] worker exit codes {codes}, expected all 0 " \
            "(clean SHUTDOWN after reconnecting)"
        print("[net-chaos] workers survived the restart and exited 0",
              flush=True)
        assert_npz_matches_serial(final_out, serial, "net-chaos")
        validate_metrics_file(
            metrics_out,
            ["cluster_worker_registrations_total",
             "cluster_reconnects_total",
             "cluster_corrupt_frames_total"],
            "net-chaos",
        )
        stats = proxy.stats()
        assert stats["corrupt_events"] >= 1, \
            "[net-chaos] the corruption fault never fired"
        print(f"[net-chaos] proxy stats: {stats}", flush=True)


GATES = {
    "parity": gate_parity,
    "worker-kill": gate_worker_kill,
    "corrupt-frame": gate_corrupt_frame,
    "net-chaos": gate_net_chaos,
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[1])
    parser.add_argument("gates", nargs="*", metavar="gate",
                        help=f"gates to run (default: all); known: "
                        f"{sorted(GATES)}")
    parser.add_argument("--net-chaos", action="store_true",
                        help="shorthand for the net-chaos gate")
    parser.add_argument("--role", choices=("coordinator",),
                        help="internal: run as a net-chaos "
                        "subprocess instead of the gate driver")
    parser.add_argument("--port", type=int,
                        help="coordinator role: port to bind")
    parser.add_argument("--slow-seconds", type=float, default=0.0,
                        help="coordinator role: stretch each shard")
    parser.add_argument("--out",
                        help="coordinator role: scores .npz path")
    parser.add_argument("--metrics-out",
                        help="coordinator role: metrics .json path")
    parser.add_argument("--started-file",
                        help="coordinator role: touched when the "
                        "detection run begins")
    args = parser.parse_args(argv)

    if args.role == "coordinator":
        if args.port is None or args.out is None:
            parser.error("--role coordinator requires --port/--out")
        return run_coordinator_role(args)

    names = list(args.gates)
    if args.net_chaos and "net-chaos" not in names:
        names.append("net-chaos")
    names = names or list(GATES)
    unknown = [name for name in names if name not in GATES]
    if unknown:
        print(f"unknown gate(s): {unknown}; known: {sorted(GATES)}",
              file=sys.stderr)
        return 1
    for name in names:
        print(f"=== gate: {name} ===", flush=True)
        try:
            GATES[name]()
        except AssertionError as error:
            print(f"GATE FAILED ({name}): {error}", file=sys.stderr)
            return 1
    print(f"all gates passed: {', '.join(names)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
