"""Remote-worker overhead benchmark for :mod:`repro.cluster`.

Scores the 5k-node disconnected benchmark graph (the headline scenario
of ``bench_parallel_scaling.py``) three ways and writes the timings to
``BENCH_cluster.json`` at the repository root:

* ``serial`` — one :class:`~repro.core.CadDetector` process;
* ``local`` — :class:`~repro.parallel.ParallelCadDetector` with two
  local worker processes over shared memory;
* ``remote`` — :class:`~repro.cluster.ClusterEngine` with two real
  ``cad-detect cluster-worker`` subprocesses over localhost sockets.

The graph has one transition, so each pool runs one task on one
worker: the local and remote rows time the engine and its transport
around one serial-path scoring, not a speed-up. Both tiers are timed
warm. Local workers fork from this process after the serial run has
imported the scoring modules; remote workers are fresh processes, so
one untimed run with one task per worker goes first, and its time is
recorded as ``remote_warmup_seconds``.

The remote tier pays for what shared memory gives away free — the CSR
sequence crosses a socket once per adopted worker, and every shard
result rides the wire back — so the honest number to gate on is the
**remote/local overhead ratio**. ``--check`` fails the run when remote
exceeds ``--max-overhead`` (default 2.0) times the local-process time,
or when the remote or local scores (δ, edge and node scores) differ
**bit for bit** from serial.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster.py
    PYTHONPATH=src python benchmarks/bench_cluster.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro import CadDetector, ParallelCadDetector
from repro.cluster import ClusterCoordinator, ClusterEngine

from bench_parallel_scaling import block_graph, timed

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_cluster.json"
WORKERS = 2


def spawn_workers(coordinator: ClusterCoordinator,
                  count: int) -> list[subprocess.Popen]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    return [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cluster-worker",
             coordinator.host, str(coordinator.port),
             "--worker-id", f"bench-{index}"],
            env=env,
        )
        for index in range(count)
    ]


def max_deviation(report, reference) -> float:
    return float(max(
        np.max(np.abs(ours.scores.node_scores
                      - theirs.scores.node_scores))
        for ours, theirs in zip(report.transitions,
                                reference.transitions)
    ))


def bitwise_equal(report, reference) -> bool:
    """Same δ and the same edge and node score arrays, bit for bit."""
    return report.threshold == reference.threshold and all(
        np.array_equal(ours.scores.edge_scores, theirs.scores.edge_scores)
        and np.array_equal(ours.scores.node_scores,
                           theirs.scores.node_scores)
        for ours, theirs in zip(report.transitions,
                                reference.transitions)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument("--nodes", type=int, default=5000,
                        help="node count of the benchmark graph")
    parser.add_argument("--blocks", type=int, default=10,
                        help="connected components in the graph")
    parser.add_argument("--quick", action="store_true",
                        help="small graph for a fast CI smoke run")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the remote tier exceeds the "
                        "overhead budget or scores diverge")
    parser.add_argument("--max-overhead", type=float, default=2.0,
                        help="allowed remote/local time ratio under "
                        "--check (default 2.0)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    nodes = 600 if args.quick else args.nodes
    graph = block_graph(nodes, blocks=args.blocks, seed=7)
    options = {"method": "exact", "seed": 7}

    print(f"[cluster] serial ({nodes} nodes) ...", flush=True)
    serial_report, serial_seconds = timed(
        lambda: CadDetector(method="exact", seed=7).detect(
            graph, anomalies_per_transition=5)
    )
    print(f"[cluster] serial: {serial_seconds:.2f}s", flush=True)

    local = ParallelCadDetector(workers=WORKERS, **options)
    local_report, local_seconds = timed(
        lambda: local.detect(graph, anomalies_per_transition=5)
    )
    print(f"[cluster] local workers={WORKERS}: "
          f"{local_seconds:.2f}s", flush=True)

    with ClusterCoordinator() as coordinator:
        procs = spawn_workers(coordinator, WORKERS)
        try:
            coordinator.wait_for_workers(WORKERS, timeout=60)
            # A fresh worker process imports the scoring modules on its
            # first task, while the local pool forks from this process,
            # which the serial run has warmed. One untimed run with one
            # task per worker warms them too; its time is recorded.
            warmup = block_graph(min(nodes, 600), blocks=args.blocks,
                                 seed=7, num_snapshots=WORKERS + 1)
            _, warmup_seconds = timed(lambda: ClusterEngine(
                coordinator, workers=WORKERS, min_workers=WORKERS,
                chunk_size=1, **options,
            ).detect(warmup, anomalies_per_transition=5))
            engine = ClusterEngine(coordinator, workers=WORKERS,
                                   min_workers=WORKERS, **options)
            remote_report, remote_seconds = timed(
                lambda: engine.detect(graph,
                                      anomalies_per_transition=5)
            )
        finally:
            coordinator.close()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
    print(f"[cluster] remote workers={WORKERS}: "
          f"{remote_seconds:.2f}s", flush=True)

    overhead = remote_seconds / local_seconds
    serial_deviation = max_deviation(remote_report, serial_report)
    remote_vs_local = max_deviation(remote_report, local_report)
    parity = (bitwise_equal(remote_report, serial_report)
              and bitwise_equal(local_report, serial_report))

    document = {
        "benchmark": "repro.cluster remote-worker overhead",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "quick": args.quick,
        "num_nodes": graph.num_nodes,
        "num_snapshots": len(graph),
        "workers": WORKERS,
        "serial_seconds": round(serial_seconds, 4),
        "local_seconds": round(local_seconds, 4),
        "remote_seconds": round(remote_seconds, 4),
        "remote_warmup_seconds": round(warmup_seconds, 4),
        "remote_overhead_vs_local": round(overhead, 3),
        "max_node_score_deviation_vs_serial": serial_deviation,
        "max_node_score_deviation_vs_local": remote_vs_local,
        "parity": parity,
    }
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.output}")
    print(f"[cluster] remote/local overhead: {overhead:.2f}x "
          f"(parity: {parity})", flush=True)

    if args.check:
        if not parity:
            print("[cluster] FAIL: parallel scores differ from serial",
                  flush=True)
            return 1
        if overhead > args.max_overhead:
            print(f"[cluster] FAIL: overhead {overhead:.2f}x exceeds "
                  f"the {args.max_overhead:g}x budget", flush=True)
            return 1
        print(f"[cluster] check passed (budget "
              f"{args.max_overhead:g}x)", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
