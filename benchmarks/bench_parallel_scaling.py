"""Scaling benchmark for :mod:`repro.parallel` — serial vs workers.

Runs CAD end to end on a synthetic 5k-node dynamic graph, once with the
serial :class:`~repro.core.CadDetector` and once per worker count with
:class:`~repro.parallel.ParallelCadDetector`, and writes the timings to
``BENCH_parallel.json`` at the repository root.

Two scenarios are measured:

* ``disconnected_exact`` — a disconnected graph (block structure, as
  produced by per-department or per-community pipelines) scored with
  the exact backend, which inverts one small Laplacian per connected
  component in serial and parallel runs alike. The graph has one
  transition, so every pool runs one task on one worker process: the
  parallel rows measure the engine's overhead, not a speed-up.
* ``transition_approx`` — a connected graph with several transitions.
  Transition sharding only helps when transitions can run on distinct
  cores; on a single-CPU box the expected speedup is ~1.0x and the
  numbers report exactly that.

Every parallel run must score bit for bit like serial; each row records
the largest node-score deviation (0.0) and whether δ is equal.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro import CadDetector, DynamicGraph, GraphSnapshot, ParallelCadDetector
from repro.graphs import perturb_weights, random_sparse_graph

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_parallel.json"
WORKER_COUNTS = (1, 2, 4)


def block_graph(num_nodes: int, blocks: int, seed: int,
                num_snapshots: int = 2) -> DynamicGraph:
    """A disconnected dynamic graph of ``blocks`` equal components."""
    block_size = num_nodes // blocks
    parts = [
        random_sparse_graph(block_size, mean_degree=6.0,
                            seed=seed + b, connected=True).adjacency
        for b in range(blocks)
    ]
    first = GraphSnapshot(sp.block_diag(parts, format="csr"), time=0)
    snapshots = [first]
    for step in range(num_snapshots - 1):
        snapshots.append(perturb_weights(
            snapshots[-1], relative_noise=0.2, seed=seed + 1000 + step,
        ))
    return DynamicGraph(snapshots)


def connected_graph(num_nodes: int, seed: int,
                    num_snapshots: int) -> DynamicGraph:
    snapshot = random_sparse_graph(num_nodes, mean_degree=6.0,
                                   seed=seed, connected=True)
    snapshots = [snapshot]
    for step in range(num_snapshots - 1):
        snapshots.append(perturb_weights(
            snapshots[-1], relative_noise=0.2, seed=seed + 1000 + step,
        ))
    return DynamicGraph(snapshots)


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_scenario(name: str, graph: DynamicGraph, serial: CadDetector,
                 parallel_options: dict) -> dict:
    print(f"[{name}] serial ...", flush=True)
    serial_report, serial_seconds = timed(
        lambda: serial.detect(graph, anomalies_per_transition=5)
    )
    print(f"[{name}] serial: {serial_seconds:.2f}s", flush=True)
    runs = []
    for workers in WORKER_COUNTS:
        detector = ParallelCadDetector(workers=workers,
                                       **parallel_options)
        report, seconds = timed(
            lambda: detector.detect(graph, anomalies_per_transition=5)
        )
        agreement = float(np.max(np.abs(
            np.array([t.scores.node_scores for t in report.transitions])
            - np.array([t.scores.node_scores
                        for t in serial_report.transitions])
        ))) if report.transitions else 0.0
        runs.append({
            "workers": workers,
            "seconds": round(seconds, 4),
            "speedup_vs_serial": round(serial_seconds / seconds, 3),
            "max_node_score_deviation": agreement,
            "threshold_matches": report.threshold == serial_report.threshold,
        })
        print(f"[{name}] workers={workers}: {seconds:.2f}s "
              f"({runs[-1]['speedup_vs_serial']}x)", flush=True)
    return {
        "name": name,
        "num_nodes": graph.num_nodes,
        "num_snapshots": len(graph),
        "method": parallel_options["method"],
        "serial_seconds": round(serial_seconds, 4),
        "parallel": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=5000,
                        help="node count of the headline scenario")
    parser.add_argument("--blocks", type=int, default=10,
                        help="connected components in the headline graph")
    parser.add_argument("--quick", action="store_true",
                        help="small graphs for a fast smoke run")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    nodes = 600 if args.quick else args.nodes
    approx_nodes = 300 if args.quick else 1500
    approx_snapshots = 3 if args.quick else 5

    scenarios = [
        run_scenario(
            "disconnected_exact",
            block_graph(nodes, blocks=args.blocks, seed=7),
            CadDetector(method="exact", seed=7),
            {"method": "exact", "seed": 7},
        ),
        run_scenario(
            "transition_approx",
            connected_graph(approx_nodes, seed=3,
                            num_snapshots=approx_snapshots),
            CadDetector(method="approx", k=32, seed=3),
            {"method": "approx", "k": 32, "seed": 3},
        ),
    ]

    document = {
        "benchmark": "repro.parallel scaling",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "quick": args.quick,
        "scenarios": scenarios,
    }
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
