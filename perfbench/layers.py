"""Which calls the traced run wraps, and the per-layer metrics.

Each patch names the attribute the program's caller looks up, so the
wrapper sits exactly at one layer boundary. Span names follow the
repository's modules: ``graphs``, ``linalg``, ``core``, ``pipeline``,
``service``/``store`` and ``parallel``/``cluster``.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Span, self_times
from stats import median


def _pairs(args, kwargs, result) -> int:
    return int(result[0].size)


def _bytes(args, kwargs, result) -> int:
    return len(args[2])


#: The exact and approximate scoring path of ``CadDetector``.
SCORING = [
    ("repro.core.scores", "union_support", "graphs.union_support",
     _pairs),
    ("repro.core.commute", "laplacian_pseudoinverse", "linalg.pinv"),
    ("repro.core.commute", "commute_times_for_pairs",
     "linalg.pair_commute"),
    ("repro.core.commute", "CommuteTimeEmbedding", "linalg.embedding"),
    ("repro.core.cad", "cad_edge_scores", "core.score"),
    ("repro.core.cad", "select_global_threshold", "core.delta_select"),
    ("repro.core.cad", "anomaly_sets_at", "core.cut"),
]

#: The harness renders batch reports through the pipeline codec.
REPORT_CODEC = [
    ("repro.pipeline.serialize", "report_to_dict",
     "pipeline.report_encode"),
]


def _request_op(args) -> str | None:
    return args[0].headers.get("X-Bench-Op")


#: Inside the ``cad-detect serve`` process.
SERVICE = SCORING + [
    ("repro.core.thresholds", "select_global_threshold",
     "core.delta_select"),
    ("repro.core.streaming", "anomaly_sets_at", "core.cut"),
    ("repro.core.streaming.StreamingCadDetector", "push",
     "core.stream_push"),
    ("repro.core.streaming.StreamingCadDetector", "finalize",
     "core.stream_finalize"),
    ("repro.service.sessions", "snapshot_from_payload",
     "pipeline.payload_decode"),
    ("repro.service.sessions", "report_to_dict",
     "pipeline.report_encode"),
    ("repro.service.sessions.SessionManager", "push", "service.push"),
    ("repro.service.sessions.SessionManager", "report",
     "service.report"),
    ("repro.service.wal.SessionWal", "append_snapshots",
     "service.wal_append"),
    ("repro.store.local.LocalDirStore", "append", "store.append",
     _bytes),
    ("repro.service.server.DetectionRequestHandler", "_dispatch",
     "service.request", None, _request_op),
]

#: In the coordinator process of the cluster workload. Worker
#: subprocesses cannot be wrapped; their numbers come from the metrics
#: the engine merges back.
CLUSTER = [
    ("repro.cluster.coordinator.ClusterEngine", "detect",
     "parallel.detect"),
    ("repro.cluster.protocol", "encode_payload", "cluster.encode"),
    ("repro.cluster.protocol", "decode_payload", "cluster.decode"),
    ("repro.parallel.engine", "assemble_transition_scores",
     "parallel.merge"),
    ("repro.parallel.engine", "select_global_threshold",
     "core.delta_select"),
    ("repro.core.cad", "anomaly_sets_at", "core.cut"),
]

#: Per-layer metric -> (unit, how it is computed, source[, witness]).
#: ``total`` sums span durations, ``self`` sums self times, ``calls``
#: counts spans, ``sum`` adds the per-call quantity; ``counter`` reads
#: the program's own metrics document and ``worker_span`` /
#: ``worker_counter`` its per-worker section. A counter the program
#: never incremented reads 0, and counts as reached when the document
#: holds the witness span. ``client`` values come from the HTTP client.
PER_LAYER = {
    "graphs.union_support_s": ("s", "total", "graphs.union_support"),
    "graphs.union_pairs": ("count", "sum", "graphs.union_support"),
    "linalg.pinv_s": ("s", "total", "linalg.pinv"),
    "linalg.pinv_calls": ("count", "calls", "linalg.pinv"),
    "linalg.pair_commute_s": ("s", "total", "linalg.pair_commute"),
    "linalg.embedding_s": ("s", "total", "linalg.embedding"),
    "linalg.embedding_builds": ("count", "calls", "linalg.embedding"),
    "linalg.cg_iterations": ("count", "counter", "cg_iterations_total"),
    "linalg.solves": ("count", "counter", "solver_solves_total"),
    "core.score_self_s": ("s", "self", "core.score"),
    "core.delta_select_s": ("s", "total", "core.delta_select"),
    "core.delta_select_calls": ("count", "calls", "core.delta_select"),
    "core.cut_s": ("s", "total", "core.cut"),
    "core.stream_push_s": ("s", "total", "core.stream_push"),
    "core.stream_finalize_s": ("s", "total", "core.stream_finalize"),
    "pipeline.payload_decode_s": ("s", "total", "pipeline.payload_decode"),
    "pipeline.report_encode_s": ("s", "total", "pipeline.report_encode"),
    "service.push_s": ("s", "total", "service.push"),
    "service.push_self_s": ("s", "self", "service.push"),
    "service.report_s": ("s", "total", "service.report"),
    "service.wal_append_s": ("s", "total", "service.wal_append"),
    "store.append_s": ("s", "total", "store.append"),
    "store.bytes_appended": ("bytes", "sum", "store.append"),
    "service.http_overhead_ms": ("ms", "client", "http_overhead_ms"),
    "service.requests_failed": ("count", "client", "requests_failed"),
    "cluster.encode_s": ("s", "total", "cluster.encode"),
    "cluster.decode_s": ("s", "total", "cluster.decode"),
    "cluster.bytes_sent": ("bytes", "counter", "cluster_bytes_sent_total"),
    "cluster.bytes_received": ("bytes", "counter",
                               "cluster_bytes_received_total"),
    "cluster.round_trips": ("count", "counter", "cluster_round_trips_total"),
    "parallel.shard_wait_s": ("s", "self", "parallel.detect"),
    "parallel.merge_s": ("s", "total", "parallel.merge"),
    "parallel.worker_embedding_s": ("s", "worker_span", "embedding.build"),
    "parallel.worker_cg_iterations": ("count", "worker_counter",
                                      "cg_iterations_total"),
    "parallel.shard_retries": ("count", "counter",
                               "parallel_shard_retries_total", "parallel.run"),
    "parallel.worker_restarts": ("count", "counter",
                                 "parallel_worker_restarts_total",
                                 "parallel.run"),
}

#: Span names whose self time is attributed to a layer in the share
#: table; the rest of each operation's wall time is reported as
#: ``unwrapped`` (harness glue, HTTP handling, interpreter overhead).
SHARE_SPANS = sorted({
    spec[2] for spec in PER_LAYER.values() if spec[1] in ("total", "self")
})


def counter_total(document: dict | None, name: str) -> float:
    """Sum of a counter over all label sets of a metrics document."""
    if not document:
        return 0.0
    return float(sum(entry["value"] for entry in document.get("counters", [])
                     if entry["name"] == name))


def worker_span_total(document: dict | None, name: str) -> float:
    workers = (document or {}).get("workers") or {}
    return float(sum(
        state.get("spans", {}).get(name, {}).get("wall_seconds", 0.0)
        for state in workers.values()
    ))


def worker_counter_total(document: dict | None, name: str) -> float:
    workers = (document or {}).get("workers") or {}
    return float(sum(counter_total(state, name)
                     for state in workers.values()))


def per_op_layers(spans: list[Span], documents: dict,
                  group_of=lambda op: op) -> dict[str, dict]:
    """Per-layer metrics as the median over operation groups.

    ``spans`` carry the operation id they belong to; ``group_of`` maps
    an operation id to the unit a metric is reported per (a detect
    call, or a whole session of HTTP requests). ``documents`` maps a
    group to the program's own metrics document for it, if any.
    Returns ``{metric: {"value", "unit", "reached"}}``; a metric is
    not reached when no group recorded it.
    """
    selfs = self_times(spans)
    by_group = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0, 0.0]))
    for span in spans:
        if span.op is None:
            continue
        acc = by_group[group_of(span.op)][span.name]
        acc[0] += span.duration
        acc[1] += selfs[span.id]
        acc[2] += 1
        acc[3] += span.count or 0.0
    groups = sorted(set(by_group) | set(documents))
    result = {}
    for metric, (unit, kind, source, *witness) in PER_LAYER.items():
        values = []
        for group in groups:
            if kind in ("total", "self", "calls", "sum"):
                acc = by_group[group].get(source)
                if acc is None:
                    continue
                index = {"total": 0, "self": 1, "calls": 2, "sum": 3}[kind]
                values.append(acc[index])
            elif kind != "client" and group in documents:
                reader = {"counter": counter_total,
                          "worker_span": worker_span_total,
                          "worker_counter": worker_counter_total}[kind]
                document = documents[group] or {}
                value = reader(document, source)
                if value or any(name in document.get("spans", {})
                                for name in witness):
                    values.append(value)
        result[metric] = {
            "value": median(values) if values else 0.0,
            "unit": unit,
            "reached": bool(values),
        }
    return result


def self_shares(spans: list[Span], wall_seconds: float) -> list[tuple]:
    """``(span name, self seconds, share of wall)`` for every layer span
    recorded, largest first. Spans that start an operation (its root)
    are left out: their self time is the unwrapped remainder."""
    selfs = self_times(spans)
    totals = defaultdict(float)
    for span in spans:
        if span.name in SHARE_SPANS:
            totals[span.name] += selfs[span.id]
    rows = [(name, seconds, seconds / wall_seconds)
            for name, seconds in totals.items()]
    rows.sort(key=lambda row: -row[1])
    return rows
