#!/usr/bin/env python
"""Chaos smoke gate: self-healing must be invisible in the scores.

Four disturbances, all with fixed seeds, all required to land
**bit-for-bit identical** to their undisturbed baselines:

1. **Worker kill mid-run** — a 2-worker parallel detection where the
   chaos plan kills the worker scoring transition 1 on its first
   attempt (``os._exit``). The supervisor requeues the shard, respawns
   the worker, and the merged report must equal the serial baseline
   byte for byte.
2. **SIGKILL the service and restart on the same WAL directory** — a
   ``cad-detect serve`` subprocess is SIGKILLed mid-stream (no drain,
   no checkpoint), a fresh process adopts the same checkpoint dir,
   the stream finishes, and the report must equal an undisturbed run.
3. **Cross-replica failover** — two ``serve`` replicas on one shared
   store with session leases. Replica A ingests half the stream and is
   SIGKILLed; replica B adopts the session once A's lease expires,
   replays its WAL from the shared store, finishes the stream, and
   the report must equal an undisturbed single-replica run.
4. **Fencing under lease-stall chaos** — replica A's lease renewals
   are partitioned away (and its heartbeat pauses, the classic stalled
   process); B adopts after the TTL; A wakes up and tries to write
   with its stale fencing token. The write MUST be rejected (503
   ``not_session_owner``), B's state must be untouched, and the
   emitted metrics document must validate against the checked-in
   schema with the lease/fencing counters present.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py [gate ...]

where ``gate`` is any of ``worker-kill``, ``sigkill-restart``,
``failover``, ``fencing`` (default: all). Exit code 0 when the
selected gates hold, 1 with the failure on stderr otherwise. Stdlib +
numpy/scipy only; CI runs this as the ``chaos-smoke`` and
``failover-smoke`` jobs.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import CadDetector, ParallelCadDetector  # noqa: E402
from repro.graphs import (  # noqa: E402
    DynamicGraph,
    perturb_weights,
    random_sparse_graph,
)
from repro.observability import (  # noqa: E402
    MetricsRegistry,
    build_metrics_document,
    enable,
)
from repro.pipeline.serialize import snapshot_to_payload  # noqa: E402
from repro.resilience.chaos import ChaosSpec, ChaosStore  # noqa: E402
from repro.service import NotOwnerError, SessionManager  # noqa: E402
from repro.store import SharedStore  # noqa: E402

sys.path.insert(0, str(REPO_ROOT / "scripts"))
from validate_metrics import validate_document  # noqa: E402

CHAOS = ChaosSpec(kill_transitions=(1,))  # first attempt dies, retry heals
ANOMALIES = 3
METRICS_SCHEMA = REPO_ROOT / "schemas" / "metrics_schema.json"


def sequence(n=24, steps=5, seed=11) -> DynamicGraph:
    snapshot = random_sparse_graph(n, mean_degree=3.0, seed=seed,
                                   connected=True)
    snapshots = [snapshot]
    for step in range(steps - 1):
        snapshots.append(perturb_weights(
            snapshots[-1], relative_noise=0.15, seed=seed + step + 1,
        ))
    return DynamicGraph(snapshots)


def assert_identical(ours, theirs, label: str) -> None:
    assert ours.threshold == theirs.threshold, f"{label}: threshold"
    for mine, other in zip(ours.transitions, theirs.transitions):
        assert mine.anomalous_edges == other.anomalous_edges, \
            f"{label}: edge set, transition {mine.index}"
        assert mine.anomalous_nodes == other.anomalous_nodes, \
            f"{label}: node set, transition {mine.index}"
        assert np.array_equal(mine.scores.edge_scores,
                              other.scores.edge_scores), \
            f"{label}: edge scores, transition {mine.index}"
        assert np.array_equal(mine.scores.node_scores,
                              other.scores.node_scores), \
            f"{label}: node scores, transition {mine.index}"


def gate_worker_kill() -> None:
    """Kill one worker mid-run; merged output must stay bitwise serial."""
    graph = sequence()
    serial = CadDetector(seed=7).detect(
        graph, anomalies_per_transition=ANOMALIES
    )
    detector = ParallelCadDetector(
        workers=2, shard_by="transition", chunk_size=1, seed=7,
        chaos=CHAOS,
    )
    healed = detector.detect(graph, anomalies_per_transition=ANOMALIES)
    assert detector.last_pool_retries >= 1, \
        "chaos plan did not fire: no shard was retried"
    assert_identical(healed, serial, "worker-kill")
    print(f"worker-kill gate ok: {detector.last_pool_retries} retried "
          f"shard(s), {detector.last_pool_restarts} respawn(s), "
          "report bit-for-bit serial")


def http(method: str, port: int, path: str, body=None, timeout=60):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def http_retry(method: str, port: int, path: str, body=None,
               deadline: float = 30.0):
    """Like :func:`http`, but retries "not the owner yet" answers
    until ``deadline``: 503 (the dead replica's lease has not expired)
    and 307 (this replica still redirects to the advertised owner —
    a corpse here; a smart client would follow and fail over, this
    bare one just asks again until the survivor adopts)."""
    end = time.monotonic() + deadline
    while True:
        try:
            return http(method, port, path, body)
        except urllib.error.HTTPError as error:
            if error.code in (503, 307) and time.monotonic() < end:
                error.read()
                time.sleep(0.25)
                continue
            raise


def http_text(port: int, path: str) -> str:
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=60) as response:
        return response.read().decode()


def boot_server(checkpoint_dir: Path | None = None,
                extra_args: list[str] | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
    if checkpoint_dir is not None:
        command += ["--checkpoint-dir", str(checkpoint_dir)]
    command += extra_args or []
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    line = process.stdout.readline()
    assert "serving on http://" in line, f"server did not boot: {line!r}"
    port = int(line.split("http://127.0.0.1:")[1].split()[0])
    return process, port


def stop_server(process) -> None:
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def picked(report_document) -> list:
    return [
        (
            entry["index"],
            sorted((e["source"], e["target"]) for e in entry["edges"]),
            sorted(entry["nodes"]),
            [e["score"] for e in entry["edges"]],
        )
        for entry in report_document["transitions"]
    ]


def gate_sigkill_restart() -> None:
    """SIGKILL the service mid-stream; a restart on the same WAL
    directory must finish the stream bit-for-bit."""
    graph = sequence(steps=8)
    payloads = [snapshot_to_payload(snapshot) for snapshot in graph]
    config = {"anomalies_per_transition": ANOMALIES, "seed": 5}

    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as temp:
        temp = Path(temp)
        baseline = SessionManager(checkpoint_dir=temp / "baseline")
        sid_base = baseline.create_session(config)["session"]
        for payload in payloads:
            baseline.push(sid_base, payload)
        expected = picked(baseline.report(sid_base))

        checkpoints = temp / "ck"
        process, port = boot_server(checkpoints)
        try:
            sid = http("POST", port, "/sessions", config)["session"]
            for payload in payloads[:4]:
                http("POST", port, f"/sessions/{sid}/snapshots",
                     payload)
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        assert process.returncode == -signal.SIGKILL

        process, port = boot_server(checkpoints)
        try:
            for payload in payloads[4:]:
                http("POST", port, f"/sessions/{sid}/snapshots",
                     payload)
            replayed = picked(
                http("GET", port, f"/sessions/{sid}/report")
            )
        finally:
            stop_server(process)
        assert replayed == expected, \
            "post-SIGKILL replay diverged from the undisturbed run"
    print(f"sigkill-restart gate ok: {len(expected)} transitions "
          "bit-for-bit across a SIGKILL + WAL replay")


def gate_failover() -> None:
    """SIGKILL replica A mid-stream; replica B on the same shared
    store must adopt the session after the lease expires, replay its
    WAL, and finish the stream bit-for-bit."""
    graph = sequence(steps=8)
    payloads = [snapshot_to_payload(snapshot) for snapshot in graph]
    config = {"anomalies_per_transition": ANOMALIES, "seed": 5}
    lease_ttl = "1.0"

    with tempfile.TemporaryDirectory(prefix="failover-smoke-") as temp:
        temp = Path(temp)
        baseline = SessionManager(checkpoint_dir=temp / "baseline")
        sid_base = baseline.create_session(config)["session"]
        for payload in payloads:
            baseline.push(sid_base, payload)
        expected = picked(baseline.report(sid_base))

        store_spec = f"shared:{temp / 'shared'}"
        replica_a, port_a = boot_server(extra_args=[
            "--store", store_spec, "--lease-ttl", lease_ttl,
            "--replica-id", "replica-a",
        ])
        replica_b = None
        try:
            replica_b, port_b = boot_server(extra_args=[
                "--store", store_spec, "--lease-ttl", lease_ttl,
                "--replica-id", "replica-b",
            ])
            sid = http("POST", port_a, "/sessions", config)["session"]
            for payload in payloads[:4]:
                http("POST", port_a, f"/sessions/{sid}/snapshots",
                     payload)
            # Replica A dies hard: no drain, no checkpoint, lease
            # unreleased. Its WAL in the shared store holds every
            # acknowledged push.
            replica_a.send_signal(signal.SIGKILL)
            replica_a.wait(timeout=30)
            assert replica_a.returncode == -signal.SIGKILL
            # B answers 503 not_session_owner until A's lease runs
            # out, then adopts and replays.
            for payload in payloads[4:]:
                http_retry("POST", port_b,
                           f"/sessions/{sid}/snapshots", payload)
            adopted = picked(
                http("GET", port_b, f"/sessions/{sid}/report")
            )
            metrics = http_text(port_b, "/metrics")
        finally:
            if replica_b is not None:
                stop_server(replica_b)
            if replica_a.poll() is None:
                replica_a.kill()
                replica_a.wait(timeout=10)
        assert adopted == expected, \
            "failover replay diverged from the undisturbed run"
        adoption_lines = [
            line for line in metrics.splitlines()
            if line.startswith("repro_service_failover_adoptions_total")
        ]
        assert adoption_lines and \
            float(adoption_lines[0].split()[-1]) >= 1, \
            "replica B did not record a failover adoption"
    print(f"failover gate ok: {len(expected)} transitions bit-for-bit "
          "across SIGKILL + cross-replica WAL adoption")


def gate_fencing() -> None:
    """A replica that lost its lease during a renewal stall must have
    its writes fenced, leaving the new owner's state untouched."""
    graph = sequence(steps=8)
    payloads = [snapshot_to_payload(snapshot) for snapshot in graph]
    config = {"anomalies_per_transition": ANOMALIES, "seed": 5}
    registry = MetricsRegistry()
    enable(registry)

    with tempfile.TemporaryDirectory(prefix="fencing-smoke-") as temp:
        temp = Path(temp)
        baseline = SessionManager(checkpoint_dir=temp / "baseline")
        sid_base = baseline.create_session(config)["session"]
        for payload in payloads:
            baseline.push(sid_base, payload)
        expected = picked(baseline.report(sid_base))

        shared_root = temp / "shared"
        chaos = ChaosStore(SharedStore(shared_root))
        ttl = 0.6
        replica_a = SessionManager(store=chaos, replica_id="replica-a",
                                   lease_ttl=ttl)
        sid = replica_a.create_session(config)["session"]
        for payload in payloads[:4]:
            replica_a.push(sid, payload)

        # Give the heartbeat (ttl/3 cadence) one healthy renewal...
        time.sleep(ttl / 2)
        # ...then the stall: lease writes stop reaching the store
        # (renewals fail) while data traffic still flows...
        chaos.stall_leases()
        time.sleep(ttl)  # let >= 1 renewal attempt hit the partition
        assert chaos.denied_ops >= 1, \
            "lease-stall chaos did not fire: no renewal was denied"
        # ...and the replica itself pauses (the canonical stalled
        # process / GC pause), so it cannot notice the loss.
        replica_a._stop_heartbeat()
        time.sleep(ttl + 0.3)  # the un-renewed lease expires

        replica_b = SessionManager(store=SharedStore(shared_root),
                                   replica_id="replica-b",
                                   lease_ttl=ttl)
        for payload in payloads[4:]:
            replica_b.push(sid, payload)
        adopted = picked(replica_b.report(sid))
        assert adopted == expected, \
            "fencing scenario: replica B's replay diverged"

        # Replica A wakes up, partition healed, and tries to write
        # with its stale token. The fencing guard must reject it.
        chaos.heal()
        try:
            replica_a.push(sid, payloads[4])
        except NotOwnerError as error:
            assert "replica" in str(error), error
        else:
            raise AssertionError(
                "stale replica A's write was NOT fenced"
            )
        # B's state is untouched by A's rejected write.
        assert picked(replica_b.report(sid)) == expected, \
            "fenced write still mutated the adopted session"

        document = build_metrics_document(registry)
        counters = {
            entry["name"]: entry["value"]
            for entry in document["counters"]
            if not entry.get("labels")
        }
        for name, minimum in [
            ("service_lease_acquires_total", 2),
            ("service_lease_renewals_total", 1),
            ("service_lease_expiries_total", 1),
            ("service_fenced_writes_total", 1),
            ("service_failover_adoptions_total", 1),
        ]:
            assert counters.get(name, 0) >= minimum, \
                f"metrics: {name} below {minimum}: {counters}"
        schema = json.loads(METRICS_SCHEMA.read_text())
        errors = validate_document(document, schema)
        assert not errors, f"metrics document invalid: {errors[:5]}"
    print("fencing gate ok: stale write rejected, adopted state "
          "untouched, lease/fencing metrics schema-valid")


GATES = {
    "worker-kill": gate_worker_kill,
    "sigkill-restart": gate_sigkill_restart,
    "failover": gate_failover,
    "fencing": gate_fencing,
}


def main(argv=None) -> int:
    names = list(argv if argv is not None else sys.argv[1:]) or \
        list(GATES)
    unknown = [name for name in names if name not in GATES]
    if unknown:
        print(f"unknown gate(s): {unknown}; available: {list(GATES)}",
              file=sys.stderr)
        return 2
    try:
        for name in names:
            GATES[name]()
    except AssertionError as error:
        print(f"chaos smoke FAILED: {error}", file=sys.stderr)
        return 1
    print(f"chaos smoke ok ({', '.join(names)}): healing is "
          "invisible in the scores")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
