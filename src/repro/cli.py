"""Command-line interface: run detectors over temporal edge-list files.

Usage::

    cad-detect info graph.csv
    cad-detect detect graph.csv --detector cad -l 5
    cad-detect score graph.csv --transition 3 --top 10
    cad-detect explain graph.csv --transition 3 --node alice
    cad-detect convert graph.csv graph.npz
    cad-detect detect graph.csv -l 5 --json-out detections.json
    cad-detect cluster-worker 127.0.0.1 9500

The primary input format is the temporal edge CSV of
:func:`repro.graphs.io.read_temporal_edge_csv`
(``time,source,target,weight`` rows); ``.json`` and ``.npz`` files
written by this library are accepted everywhere too.

Exit codes: ``0`` success, ``1`` environment problems (unreadable
files, bad usage), ``2`` library errors
(:class:`~repro.exceptions.ReproError` — dirty data under
``--strict``, solver failure, malformed graph documents, ...).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from .exceptions import ReproError
from .graphs.io import (
    read_json,
    read_npz,
    read_temporal_edge_csv,
    write_json,
    write_npz,
    write_temporal_edge_csv,
)
from .observability import (
    LOG_LEVELS,
    configure_logging,
    get_logger,
    render_prometheus,
)

_READERS = {
    ".csv": read_temporal_edge_csv,
    ".json": read_json,
    ".npz": read_npz,
}
_WRITERS = {
    ".csv": write_temporal_edge_csv,
    ".json": write_json,
    ".npz": write_npz,
}


class _UsageError(Exception):
    """CLI usage problems (exit code 1, distinct from library errors)."""


class _MethodNames:
    """The ``--method`` choices, read from the method registry on first
    use: the registry imports every detector, which no other subcommand
    needs."""

    def __iter__(self):
        from .pipeline.api import DETECTOR_FACTORIES

        return iter(sorted(DETECTOR_FACTORIES))

    def __contains__(self, name) -> bool:
        return name in list(self)


def _load_graph(path: str, sanitize: str | None = None,
                reports: list | None = None):
    suffix = Path(path).suffix.lower()
    reader = _READERS.get(suffix)
    if reader is None:
        raise _UsageError(
            f"unsupported input extension {suffix!r} "
            f"(expected one of {sorted(_READERS)})"
        )
    if sanitize is None:
        return reader(path)
    return reader(path, sanitize=sanitize, reports=reports)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="cad-detect",
        description=(
            "Localize anomalous edges/nodes in a time-evolving graph "
            "(CAD, SIGMOD 2014)."
        ),
    )
    parser.add_argument("--log-level", default="warning",
                        choices=sorted(LOG_LEVELS),
                        help="verbosity of the 'repro' logger on stderr")
    parser.add_argument("--log-json", action="store_true",
                        help="emit log records as JSON lines")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="summarise a temporal graph file")
    info.add_argument("path", help="temporal edge CSV file")

    run = sub.add_parser("detect", help="run a detector end to end")
    run.add_argument("path", help="temporal edge CSV file")
    method = run.add_argument("--detector", "--method", dest="detector",
                              default="cad",
                              help="registered detection method (see "
                              "'cad-detect list-methods')")
    # Set after add_argument, which formats the choices at once.
    method.choices = _MethodNames()
    run.add_argument("-l", "--anomalies-per-transition", type=int,
                     default=5, help="average anomaly budget per "
                     "transition (drives the global delta selection)")
    run.add_argument("--delta", type=float, default=None,
                     help="explicit dissimilarity threshold delta")
    run.add_argument("--seed", type=int, default=None,
                     help="seed for randomized components")
    run.add_argument("--json-out", default=None,
                     help="also write the report as a JSON document")
    run.add_argument("--solver", default=None,
                     choices=("cg", "direct", "fallback"),
                     help="Laplacian solver backend for CAD; 'fallback' "
                     "escalates CG -> relaxed CG -> LU -> dense")
    run.add_argument("--factor-cache", action="store_true",
                     help="CAD only: reuse Laplacian factorizations "
                     "across snapshots (identity hits are bit-for-bit; "
                     "small edge deltas are absorbed by rank-one "
                     "updates; see docs/performance.md)")
    run.add_argument("--cache-budget-mb", type=int, default=None,
                     help="factor-cache byte budget in MiB "
                     "(default 512; implies --factor-cache)")
    run.add_argument("--workers", type=int, default=None,
                     help="score CAD with this many worker processes "
                     "(repro.parallel); default serial. A dead worker "
                     "pool exits with code 2 like any library error")
    run.add_argument("--shard-by", default="auto",
                     choices=("transition", "component", "auto"),
                     help="kept for compatibility: every value shards "
                     "by transition, bit for bit with a serial run")
    run.add_argument("--max-worker-restarts", type=int, default=None,
                     help="parallel runs only: how many dead/hung "
                     "workers the supervisor may respawn before "
                     "escalating (default 4)")
    run.add_argument("--max-shard-retries", type=int, default=None,
                     help="parallel runs only: how many times one "
                     "shard may be requeued after its worker died "
                     "before the run fails (default 2)")
    run.add_argument("--shard-deadline", type=float, default=None,
                     help="parallel runs only: seconds one shard may "
                     "run before its worker is declared hung and "
                     "replaced (default: no deadline)")
    run.add_argument("--sanitize", default="repair",
                     choices=("repair", "quarantine", "raise"),
                     help="policy for dirty snapshots (NaN/negative "
                     "weights, asymmetry, self-loops); default repairs "
                     "them and notes each repair on stderr")
    run.add_argument("--strict", action="store_true",
                     help="treat any snapshot defect as a hard error "
                     "(shorthand for --sanitize raise)")
    run.add_argument("--metrics-out", default=None,
                     help="collect tracing/metrics for the run and "
                     "write the merged document to this path")
    run.add_argument("--metrics-format", default="json",
                     choices=("json", "prometheus"),
                     help="--metrics-out format: JSON document "
                     "(default) or Prometheus text exposition")

    score = sub.add_parser(
        "score", help="print raw CAD scores for one transition"
    )
    score.add_argument("path", help="temporal edge CSV file")
    score.add_argument("--transition", type=int, default=0,
                       help="0-based transition index")
    score.add_argument("--top", type=int, default=10,
                       help="number of top edges/nodes to print")
    score.add_argument("--seed", type=int, default=None)

    explain = sub.add_parser(
        "explain", help="attribute one node's anomaly score to edges"
    )
    explain.add_argument("path", help="temporal graph file")
    explain.add_argument("--transition", type=int, default=0,
                         help="0-based transition index")
    explain.add_argument("--node", required=True,
                         help="node label to explain")
    explain.add_argument("--seed", type=int, default=None)

    sub.add_parser(
        "list-methods",
        help="print the detector method registry (name, family, "
        "streaming capability, description)",
    )

    convert = sub.add_parser(
        "convert", help="convert between csv/json/npz graph formats"
    )
    convert.add_argument("source", help="input graph file")
    convert.add_argument("destination",
                         help="output file (.csv/.json/.npz)")

    serve = sub.add_parser(
        "serve", help="run the HTTP detection service "
        "(sessioned streaming ingest; see docs/serving.md)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port; 0 picks an ephemeral port")
    serve.add_argument("--max-sessions", type=int, default=64,
                       help="resident detector ceiling; the LRU idle "
                       "session is checkpointed to disk beyond it")
    serve.add_argument("--max-queue", type=int, default=32,
                       help="global bound on snapshots being ingested "
                       "at once; excess pushes get 429 + Retry-After")
    serve.add_argument("--checkpoint-dir", default=None,
                       help="directory for eviction/drain checkpoints "
                       "(default: a fresh temporary directory); "
                       "existing session checkpoints in it are adopted")
    serve.add_argument("--store", default=None,
                       help="durable session store spec: local:<dir> "
                       "(single replica, plain files) or shared:<dir> "
                       "(multi-replica shared prefix with checksummed "
                       "manifests); mutually exclusive with "
                       "--checkpoint-dir")
    serve.add_argument("--lease-ttl", type=float, default=None,
                       help="enable per-session ownership leases with "
                       "this TTL in seconds (required for multiple "
                       "replicas on one shared store; a session whose "
                       "lease lapses is adopted by any replica)")
    serve.add_argument("--replica-id", default=None,
                       help="stable replica identity recorded in lease "
                       "records, log lines and /healthz "
                       "(default: <hostname>-<pid>)")
    serve.add_argument("--workers", type=int, default=1,
                       help="score eligible snapshot batches with this "
                       "many worker processes (repro.parallel)")
    serve.add_argument("--no-wal", action="store_true",
                       help="disable the per-session write-ahead log "
                       "(pushes since the last checkpoint are lost on "
                       "a hard kill)")
    serve.add_argument("--request-deadline", type=float, default=None,
                       help="seconds a push may wait for its session "
                       "lock before failing with 503 "
                       "deadline_exceeded (default: wait forever)")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive server-side failures that "
                       "trip a session's circuit breaker (503 "
                       "circuit_open until the cooldown elapses)")
    serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                       help="seconds a tripped breaker stays open; "
                       "doubles on consecutive trips")
    serve.add_argument("--factor-cache", action="store_true",
                       help="enable the process-wide factorization "
                       "cache for every CAD session by default "
                       "(sessions may also opt in individually)")
    serve.add_argument("--cache-budget-mb", type=int, default=None,
                       help="factor-cache byte budget in MiB for "
                       "sessions that don't set their own "
                       "(default 512; implies --factor-cache)")

    worker = sub.add_parser(
        "cluster-worker", help="join a detection cluster: connect to a "
        "coordinator and score shards it sends (see docs/distribution.md)"
    )
    worker.add_argument("host", help="coordinator host to connect to")
    worker.add_argument("port", type=int,
                        help="coordinator registration port")
    worker.add_argument("--worker-id", default=None,
                        help="stable worker identity stamped into shard "
                        "results (default: <hostname>-<pid>)")
    worker.add_argument("--max-runs", type=int, default=None,
                        help="exit after serving this many detection "
                        "runs (default: serve until released)")
    worker.add_argument("--connect-attempts", type=int, default=20,
                        help="initial connection attempts before giving "
                        "up (exponential backoff; default 20)")
    worker.add_argument("--reconnect-attempts", type=int, default=5,
                        help="consecutive failed reconnection cycles "
                        "tolerated after a dropped coordinator link "
                        "before exiting; 0 disables reconnection "
                        "(default 5)")
    worker.add_argument("--reconnect-backoff", type=float, default=0.25,
                        help="base delay in seconds between "
                        "reconnection cycles, doubled per consecutive "
                        "failure up to a 4s cap, with jitter "
                        "(default 0.25)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_output=args.log_json)
    commands = {
        "info": _cmd_info,
        "detect": _cmd_detect,
        "score": _cmd_score,
        "explain": _cmd_explain,
        "convert": _cmd_convert,
        "serve": _cmd_serve,
        "cluster-worker": _cmd_cluster_worker,
        "list-methods": _cmd_list_methods,
    }
    try:
        return commands[args.command](args)
    except ReproError as error:  # library errors: clean text, code 2
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (OSError, _UsageError) as error:  # environment/usage: code 1
        print(f"error: {error}", file=sys.stderr)
        return 1


def _cmd_info(args) -> int:
    from .pipeline.report import render_table

    graph = _load_graph(args.path)
    rows = [
        (position, snapshot.time, snapshot.num_edges,
         f"{snapshot.volume():.6g}")
        for position, snapshot in enumerate(graph)
    ]
    print(f"nodes: {graph.num_nodes}   snapshots: {len(graph)}   "
          f"mean edges: {graph.mean_num_edges():.1f}")
    print(render_table(("index", "time", "edges", "volume"), rows))
    return 0


def _cmd_detect(args) -> int:
    from .pipeline.api import detect
    from .pipeline.serialize import write_report_json

    sanitize = "raise" if args.strict else args.sanitize
    reports: list = []
    graph = _load_graph(args.path, sanitize=sanitize, reports=reports)
    for note in reports:
        if not note.is_clean:
            print(f"sanitize: {note.describe()}", file=sys.stderr)
    kwargs = {}
    seed_aware = ("cad", "com", "act", "lad", "invariant", "fusion")
    if args.detector in seed_aware and args.seed is not None:
        kwargs["seed"] = args.seed
    if args.detector == "cad" and args.solver is not None:
        kwargs["solver"] = args.solver
    if args.factor_cache or args.cache_budget_mb is not None:
        if args.detector != "cad":
            raise _UsageError(
                "--factor-cache/--cache-budget-mb only apply to "
                "--detector cad"
            )
        if args.cache_budget_mb is not None and args.cache_budget_mb < 1:
            raise _UsageError(
                f"--cache-budget-mb must be >= 1, got "
                f"{args.cache_budget_mb}"
            )
        kwargs["factor_cache"] = "shared"
        kwargs["cache_budget_mb"] = args.cache_budget_mb
    supervision = {
        "max_worker_restarts": args.max_worker_restarts,
        "max_shard_retries": args.max_shard_retries,
        "shard_deadline": args.shard_deadline,
    }
    supervision = {k: v for k, v in supervision.items() if v is not None}
    if supervision:
        if args.workers is None or args.workers <= 1:
            raise _UsageError(
                "--max-worker-restarts/--max-shard-retries/"
                "--shard-deadline require --workers > 1"
            )
        kwargs.update(supervision)
    logger = get_logger("cli")
    logger.info("detect: %s over %s (%d snapshots)", args.detector,
                args.path, len(graph))
    report = detect(
        graph,
        detector=args.detector,
        anomalies_per_transition=args.anomalies_per_transition,
        delta=args.delta,
        workers=args.workers,
        shard_by=args.shard_by,
        metrics=args.metrics_out is not None,
        **kwargs,
    )
    print(report.summary())
    if args.json_out:
        write_report_json(report, args.json_out)
        print(f"report written to {args.json_out}")
    if args.metrics_out:
        if args.metrics_format == "prometheus":
            rendered = render_prometheus(report.metrics)
        else:
            rendered = json.dumps(report.metrics, indent=1)
        Path(args.metrics_out).write_text(rendered)
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_list_methods(args) -> int:
    from .detectors.registry import list_methods
    from .pipeline.report import render_table

    rows = [
        (method.name, method.family,
         "yes" if method.streaming else "no", method.description)
        for method in list_methods()
    ]
    print(render_table(
        ("method", "family", "streaming", "description"), rows,
        title="registered detection methods",
    ))
    return 0


def _cmd_explain(args) -> int:
    from .core.explain import explain_node
    from .pipeline.api import make_detector

    graph = _load_graph(args.path)
    if not 0 <= args.transition < graph.num_transitions:
        print(
            f"error: transition must lie in [0, "
            f"{graph.num_transitions - 1}]", file=sys.stderr,
        )
        return 1
    node = args.node
    if node not in graph.universe:
        print(f"error: node {node!r} not in the graph",
              file=sys.stderr)
        return 1
    detector = make_detector("cad", seed=args.seed)
    scores = detector.score_transition(
        graph[args.transition], graph[args.transition + 1]
    )
    print(explain_node(scores, node).describe())
    return 0


def _cmd_convert(args) -> int:
    suffix = Path(args.destination).suffix.lower()
    writer = _WRITERS.get(suffix)
    if writer is None:
        print(
            f"error: unsupported output extension {suffix!r} "
            f"(expected one of {sorted(_WRITERS)})", file=sys.stderr,
        )
        return 1
    graph = _load_graph(args.source)
    writer(graph, args.destination)
    print(f"wrote {len(graph)} snapshots, {graph.num_nodes} nodes "
          f"to {args.destination}")
    return 0


def _cmd_serve(args) -> int:
    from .service import run_server

    if args.port < 0 or args.port > 65535:
        raise _UsageError(f"port must lie in [0, 65535], got {args.port}")
    if args.max_sessions < 1:
        raise _UsageError(
            f"--max-sessions must be >= 1, got {args.max_sessions}"
        )
    if args.max_queue < 1:
        raise _UsageError(
            f"--max-queue must be >= 1, got {args.max_queue}"
        )
    if args.workers < 1:
        raise _UsageError(f"--workers must be >= 1, got {args.workers}")
    if args.request_deadline is not None and args.request_deadline <= 0:
        raise _UsageError(
            f"--request-deadline must be > 0, got {args.request_deadline}"
        )
    if args.breaker_threshold < 1:
        raise _UsageError(
            f"--breaker-threshold must be >= 1, got {args.breaker_threshold}"
        )
    if args.store is not None and args.checkpoint_dir is not None:
        raise _UsageError(
            "--store and --checkpoint-dir are mutually exclusive"
        )
    if args.lease_ttl is not None and args.lease_ttl <= 0:
        raise _UsageError(
            f"--lease-ttl must be > 0, got {args.lease_ttl}"
        )
    if args.cache_budget_mb is not None and args.cache_budget_mb < 1:
        raise _UsageError(
            f"--cache-budget-mb must be >= 1, got {args.cache_budget_mb}"
        )
    return run_server(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        max_queue=args.max_queue,
        checkpoint_dir=args.checkpoint_dir,
        store=args.store,
        replica_id=args.replica_id,
        lease_ttl=args.lease_ttl,
        workers=args.workers,
        wal=not args.no_wal,
        request_deadline=args.request_deadline,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        factor_cache=args.factor_cache or args.cache_budget_mb is not None,
        cache_budget_mb=args.cache_budget_mb,
    )


def _cmd_cluster_worker(args) -> int:
    from .cluster import run_worker

    if not 0 < args.port <= 65535:
        raise _UsageError(f"port must lie in [1, 65535], got {args.port}")
    if args.max_runs is not None and args.max_runs < 1:
        raise _UsageError(
            f"--max-runs must be >= 1, got {args.max_runs}"
        )
    if args.connect_attempts < 1:
        raise _UsageError(
            f"--connect-attempts must be >= 1, got {args.connect_attempts}"
        )
    if args.reconnect_attempts < 0:
        raise _UsageError(
            f"--reconnect-attempts must be >= 0, "
            f"got {args.reconnect_attempts}"
        )
    if args.reconnect_backoff < 0:
        raise _UsageError(
            f"--reconnect-backoff must be >= 0, "
            f"got {args.reconnect_backoff}"
        )
    try:
        return run_worker(
            args.host, args.port,
            worker_id=args.worker_id,
            max_runs=args.max_runs,
            connect_attempts=args.connect_attempts,
            reconnect_attempts=args.reconnect_attempts,
            reconnect_backoff=args.reconnect_backoff,
        )
    except KeyboardInterrupt:  # operator Ctrl-C is a clean exit
        return 0


def _cmd_score(args) -> int:
    from .pipeline.api import make_detector
    from .pipeline.report import render_table

    graph = _load_graph(args.path)
    if not 0 <= args.transition < graph.num_transitions:
        print(
            f"error: transition must lie in [0, "
            f"{graph.num_transitions - 1}]", file=sys.stderr,
        )
        return 1
    detector = make_detector("cad", seed=args.seed)
    scores = detector.score_transition(
        graph[args.transition], graph[args.transition + 1]
    )
    print(render_table(
        ("source", "target", "delta_e"),
        scores.top_edges(args.top),
        title=f"top {args.top} edge scores, transition "
              f"{args.transition}",
    ))
    print()
    print(render_table(
        ("node", "delta_n"),
        scores.top_nodes(args.top),
        title=f"top {args.top} node scores",
    ))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
