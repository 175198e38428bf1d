"""The four workloads. Each is built so a different layer does most of
its work (README.md says why each exists):

* ``gm-dense``: batch ``repro.detect()`` on the §4.1 Gaussian mixture;
  the exact dense pseudoinverse dominates.
* ``sparse-30k``: batch ``repro.detect()`` on the §4.1.3 sparse
  transition; the JL embedding's CG solves dominate.
* ``enron-http``: one kept-alive client streaming Enron-like sessions
  through ``cad-detect serve``; the online threshold rule dominates.
* ``drift-cluster``: ``ClusterEngine.detect()`` over two
  ``cad-detect cluster-worker`` processes; waiting on shards dominates.

Every workload runs the library defaults (``method="auto"``, five
anomalies per transition, no factor cache, no incremental updates)
with a detector seed equal to the workload seed.
"""

from __future__ import annotations

import http.client
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.cluster import ClusterCoordinator, ClusterEngine
from repro.linalg.embedding import estimate_embedding_error
from repro.pipeline import serialize

import gates
import inputs
import layers
from envinfo import peak_rss_mb, process_record
from procs import Child, probe_import
from spans import Span, Tracer, read_spans
from stats import median, samples_for_percentile, tail_percentile

ANOMALIES = 5
#: Embedding dimension ``method="auto"`` uses on large graphs.
EMBEDDING_K = 50
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: enron-http: a report is read after every this many pushes.
REPORT_EVERY = 8
#: enron-http: the push tail is p95, so a run streams at least this
#: many pushes (ten samples beyond p95).
MIN_PUSHES = samples_for_percentile(95.0)
#: Timed detect calls every run makes, however short its seconds; a
#: traced run makes this many of each kind.
MIN_DETECTS = 3
MIN_TRACED_DETECTS = 2
MIN_SESSIONS = 2
#: drift-cluster: worker processes, each with one BLAS thread so the
#: two fit the host's two cores.
CLUSTER_WORKERS = 2
HTTP_TIMEOUT = 120.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    processes: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    layers: dict | None = None
    shares: list | None = None
    spans: list | None = None

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def op(self, failures=()) -> None:
        """Count one operation, failed when it carries failures."""
        self.attempted += 1
        self.gate(failures)

    def gate(self, failures, what: str = "") -> None:
        """Fail an operation already counted when its output gate
        finds ``failures``."""
        if failures:
            self.failed += 1
            self.failures.extend(f"{what}{failure}" for failure in failures)


def _latencies(outcome: Outcome, push_ms: list[float]) -> None:
    """``push_p50_ms`` and ``push_p95_ms`` from per-operation times.

    The tail is the highest percentile with ten samples beyond it;
    with ten samples or fewer no percentile has, and the slowest sample
    stands in.
    """
    outcome.metric("push_p50_ms", median(push_ms), "ms")
    tail = tail_percentile(push_ms)
    percentile, value = tail if tail is not None else (100.0, max(push_ms))
    outcome.info["push_tail"] = {"percentile": round(percentile, 2),
                                 "samples": len(push_ms)}
    outcome.metric("push_p95_ms", value, "ms")


def _overhead(outcome: Outcome, untraced: float, traced: float) -> None:
    outcome.layers["trace.detect_s"] = {"value": traced, "unit": "s",
                                        "reached": True}
    outcome.layers["trace.overhead_pct"] = {
        "value": 100.0 * (traced - untraced) / untraced, "unit": "%",
        "reached": True,
    }
    outcome.info["untraced_detect_s"] = untraced


# -- batch and cluster workloads ------------------------------------------------

def _detect_call(graph, seed: int, detector=None):
    """One user-level detect; traced calls also collect the program's
    own metrics and render the report through the codec."""
    options = {"detector": detector} if detector else {"seed": seed}

    def call(traced: bool):
        report = repro.detect(graph, anomalies_per_transition=ANOMALIES,
                              metrics=traced, **options)
        if traced:
            serialize.report_to_dict(report, include_scores=True)
        return report
    return call


class DetectLoop:
    """A warm-up call on a small input of the same kind, then timed
    calls until the run's seconds are spent.

    With tracing, untraced and traced calls alternate, so both see the
    same machine state; traced calls run with the layer wrappers
    installed.
    """

    def __init__(self, outcome: Outcome, call, seconds: float,
                 trace: bool, patches):
        self.outcome = outcome
        self.call = call
        self.seconds = seconds
        self.trace = trace
        self.patches = patches
        self.tracer = Tracer()
        self.untraced_s: list[float] = []
        self.traced_s: list[float] = []
        self.documents: dict[str, dict] = {}
        self.reports = []

    def run(self, warmup_call, check) -> None:
        """``check(report)`` returns the failures of one call."""
        try:
            warmup_call(False)
        except Exception as error:  # noqa: BLE001 - a failed operation
            self.outcome.op([f"warm-up: {type(error).__name__}: {error}"])
            return
        self.outcome.op()
        started = time.perf_counter()
        index = 0
        least = MIN_TRACED_DETECTS if self.trace else MIN_DETECTS
        while (time.perf_counter() - started < self.seconds
               or len(self.untraced_s) < least
               or (self.trace and len(self.traced_s) < least)):
            if not self._one(index, self.trace and index % 2 == 1, check):
                return
            index += 1

    def _one(self, index: int, traced: bool, check) -> bool:
        """One timed detect call; ``False`` when it raised."""
        op = f"detect-{index}"
        undo = self.tracer.install(self.patches) if traced else None
        try:
            started = time.perf_counter()
            if traced:
                with self.tracer.span("detect", op=op, root=True):
                    report = self.call(True)
            else:
                report = self.call(False)
            elapsed = time.perf_counter() - started
        except Exception as error:  # noqa: BLE001 - a failed operation
            self.outcome.op([f"{op}: {type(error).__name__}: {error}"])
            return False
        finally:
            if undo is not None:
                undo()
        self.outcome.op([f"{op}: {f}" for f in check(report)])
        self.reports.append(report)
        if traced:
            self.traced_s.append(elapsed)
            self.documents[op] = report.metrics
        else:
            self.untraced_s.append(elapsed)
        return True

    def finish(self, outcome: Outcome, labels, rss_mb: float) -> None:
        """The end-to-end metrics, and with tracing the layer report."""
        report = self.reports[-1]
        # A traced run reports its own end-to-end numbers.
        timed = self.traced_s if self.trace else self.untraced_s
        outcome.metric("detect_s", median(timed), "s")
        # The whole sequence is handed over, and its report returned, in
        # one call: the call stands in for a push and for a report read.
        _latencies(outcome, [s * 1000.0 for s in timed])
        outcome.metric("report_p50_ms", median(timed) * 1000.0, "ms")
        outcome.metric("peak_rss_mb", rss_mb, "MB")
        outcome.metric("node_auc", gates.report_auc(
            np.vstack([t.scores.node_scores for t in report.transitions]),
            labels), "ratio")
        outcome.info["detect_samples_s"] = timed
        if self.trace:
            spans = self.tracer.spans
            outcome.spans = spans
            outcome.layers = layers.per_op_layers(spans, self.documents)
            wall = sum(s.duration for s in spans if s.name == "detect")
            outcome.shares = layers.self_shares(spans, wall)
            _overhead(outcome, median(self.untraced_s),
                      median(self.traced_s))


def _setup_batch(workdir: Path, seed: int, outcome: Outcome) -> None:
    """``setup_s``: ``import repro`` and detector construction, each
    time in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        seconds, env = probe_import(workdir, seed)
        times.append(seconds)
    outcome.processes.append(env)
    outcome.metric("setup_s", median(times), "s")
    outcome.info["setup_samples_s"] = times


def gm_dense(seed: int, seconds: float, trace: bool,
             workdir: Path) -> Outcome:
    outcome = Outcome()
    data = inputs.gaussian_mixture(seed)
    warmup = inputs.gaussian_mixture(seed, n=100)
    outcome.info["input_digest"] = data.digest
    rows, cols = gates.sample_pairs(data.graph, gates.COMMUTE_SAMPLE,
                                    inputs.child_seed(seed, 11))
    before = gates.reference_commute_times(data.graph[0].adjacency,
                                           rows, cols)
    after = gates.reference_commute_times(data.graph[1].adjacency,
                                          rows, cols)
    if not trace:
        _setup_batch(workdir, seed, outcome)
    loop = DetectLoop(outcome, _detect_call(data.graph, seed), seconds,
                      trace, layers.SCORING + layers.REPORT_CODEC)
    loop.run(_detect_call(warmup.graph, seed),
             lambda report: gates.check_commute_sample(
                 report.transitions[0].scores, rows, cols, before, after))
    loop.finish(outcome, data.labels, peak_rss_mb())
    outcome.processes.append(process_record("harness"))
    return outcome


def sparse_30k(seed: int, seconds: float, trace: bool,
               workdir: Path) -> Outcome:
    outcome = Outcome()
    data = inputs.sparse_transition(seed)
    warmup = inputs.sparse_transition(seed, n=3000)
    outcome.info["input_digest"] = data.digest
    if not trace:
        _setup_batch(workdir, seed, outcome)
    loop = DetectLoop(outcome, _detect_call(data.graph, seed), seconds,
                      trace, layers.SCORING + layers.REPORT_CODEC)

    def check(report):
        first = loop.reports[0] if loop.reports else report
        return gates.check_repeatable(report, first)

    loop.run(_detect_call(warmup.graph, seed), check)
    loop.finish(outcome, data.labels, peak_rss_mb())
    errors = estimate_embedding_error(
        data.graph[0].adjacency, k=EMBEDDING_K,
        num_samples=gates.EMBEDDING_SAMPLE, seed=inputs.child_seed(seed, 12),
    )
    outcome.info["embedding_error"] = errors
    outcome.info["embedding_epsilon"] = gates.embedding_epsilon(
        inputs.SPARSE_NODES, EMBEDDING_K)
    outcome.gate(gates.check_embedding_error(errors, inputs.SPARSE_NODES,
                                             EMBEDDING_K))
    outcome.processes.append(process_record("harness"))
    return outcome


class Cluster:
    """A coordinator in this process plus worker subprocesses."""

    def __init__(self, workdir: Path):
        started = time.perf_counter()
        self.coordinator = ClusterCoordinator()
        self.workers = []
        try:
            for index in range(CLUSTER_WORKERS):
                self.workers.append(Child(
                    ["worker", self.coordinator.host,
                     str(self.coordinator.port), f"bench-{index}"],
                    workdir, blas_threads=1,
                ))
            self.coordinator.wait_for_workers(CLUSTER_WORKERS, timeout=60)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        return max([peak_rss_mb()]
                   + [worker.peak_rss_mb() for worker in self.workers])

    def close(self) -> None:
        self.coordinator.close()
        for worker in self.workers:
            worker.stop()


def drift_cluster(seed: int, seconds: float, trace: bool,
                  workdir: Path) -> Outcome:
    outcome = Outcome()
    data = inputs.drift_stream(seed)
    warmup = inputs.drift_stream(seed, n=500, snapshots=4)
    outcome.info["input_digest"] = data.digest
    setups = []
    cluster = None
    try:
        for _ in range(1 if trace else SETUP_REPS):
            if cluster is not None:
                cluster.close()
            cluster = Cluster(workdir)
            setups.append(cluster.setup_s)
        outcome.processes.extend(worker.env for worker in cluster.workers)
        engine = ClusterEngine(cluster.coordinator,
                               workers=CLUSTER_WORKERS,
                               min_workers=CLUSTER_WORKERS,
                               shard_by="transition", seed=seed)
        loop = DetectLoop(outcome,
                          _detect_call(data.graph, seed, detector=engine),
                          seconds, trace, layers.CLUSTER)
        loop.run(_detect_call(warmup.graph, seed, detector=engine),
                 lambda report: [])
        rss = cluster.peak_rss_mb()
    finally:
        if cluster is not None:
            cluster.close()
    if not trace:
        outcome.metric("setup_s", median(setups), "s")
        outcome.info["setup_samples_s"] = setups
    loop.finish(outcome, data.labels, rss)
    # Transition sharding promises the serial content-seeded result.
    serial = repro.CadDetector(seed=seed, seed_mode="content").detect(
        data.graph, anomalies_per_transition=ANOMALIES)
    for index, report in enumerate(loop.reports):
        outcome.gate(gates.check_same_scores(report, serial, "serial"),
                     what=f"detect-{index}: ")
    outcome.processes.append(process_record("harness (coordinator)"))
    return outcome


# -- enron-http -----------------------------------------------------------------

class Server:
    """``cad-detect serve`` started through the benchmark's launcher."""

    def __init__(self, workdir: Path, name: str, trace: bool):
        self.spans_path = workdir / f"{name}.spans.jsonl"
        started = time.perf_counter()
        self.child = Child(["server", str(workdir / name),
                            "1" if trace else "0", str(self.spans_path)],
                           workdir)
        try:
            line = self.child.readline()
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"server did not start: {line!r}")
            port = int(line.split()[2].rsplit(":", 1)[1])
            self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                                   timeout=HTTP_TIMEOUT)
            while True:
                try:
                    status, _, _ = self.request("GET", "/readyz")
                except OSError:
                    self.conn.close()
                    status = None
                if status == 200:
                    break
                time.sleep(0.01)
        except BaseException:
            self.child.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def request(self, method: str, path: str, body: bytes | None = None,
                op: str | None = None):
        """One round trip on the kept-alive connection: status, seconds
        from send to the last byte of the reply, and the reply body."""
        headers = {"Content-Type": "application/json"}
        if op is not None:
            headers["X-Bench-Op"] = op
        started = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        payload = response.read()
        return response.status, time.perf_counter() - started, payload

    def stop(self) -> list[Span]:
        """Drain the server; its spans when it was traced."""
        self.conn.close()
        self.child.stop()
        if self.spans_path.exists():
            return read_spans(self.spans_path)
        return []


class SessionClient:
    """The closed-loop client: one session at a time, each request
    waiting for the previous reply."""

    def __init__(self, server: Server, seed: int, outcome: Outcome):
        self.server = server
        self.seed = seed
        self.outcome = outcome
        self.push_ms: list[float] = []
        self.report_ms: list[float] = []
        self.session_s: list[float] = []
        #: ``(session input, snapshots pushed, finalized document)``.
        self.finals: list[tuple] = []
        #: ``(op id, kind, round-trip seconds)`` of every request.
        self.requests: list[tuple] = []
        self.failed_requests = 0
        self.sessions = 0

    def _call(self, op_prefix: str, kind: str, method: str, path: str,
              body: bytes | None = None) -> tuple[bytes, float]:
        op = f"{op_prefix}{self.sessions}-{len(self.requests)}"
        try:
            status, seconds, payload = self.server.request(
                method, path, body, op=op)
        except (OSError, http.client.HTTPException) as error:
            self.failed_requests += 1
            self.outcome.op([f"{kind} {path}: {error}"])
            raise
        self.requests.append((op, kind, seconds))
        if not 200 <= status < 300:
            self.failed_requests += 1
            failure = f"{kind} {path}: HTTP {status} {payload[:200]!r}"
            self.outcome.op([failure])
            raise RuntimeError(failure)
        self.outcome.op()
        return payload, seconds

    def session(self, session: inputs.Session, stop, op_prefix="s") -> None:
        """Stream one session: create, push every snapshot (reading the
        report after every ``REPORT_EVERY``), finalize, delete.
        ``stop()`` is asked after each push whether to finish early."""
        started = time.perf_counter()
        call = lambda *args: self._call(op_prefix, *args)  # noqa: E731
        payload, _ = call("create", "POST", "/sessions",
                          json.dumps({"seed": self.seed}).encode())
        sid = json.loads(payload)["session"]
        pushes, reports = [], []
        for index, body in enumerate(session.bodies, start=1):
            _, seconds = call("push", "POST", f"/sessions/{sid}/snapshots",
                              body)
            pushes.append(seconds * 1000.0)
            if index % REPORT_EVERY == 0:
                _, seconds = call("report", "GET", f"/sessions/{sid}/report")
                reports.append(seconds * 1000.0)
            if index >= 2 and stop(len(pushes)):
                break
        payload, _ = call("finalize", "POST",
                          f"/sessions/{sid}/finalize?include_scores=1")
        elapsed = time.perf_counter() - started
        call("delete", "DELETE", f"/sessions/{sid}")
        self.sessions += 1
        if op_prefix != "s":
            return
        if index == len(session.bodies):
            self.session_s.append(elapsed)
        self.push_ms.extend(pushes)
        self.report_ms.extend(reports)
        self.finals.append((session, index, json.loads(payload)))


def _stream(server: Server, sessions, seed: int, seconds: float,
            min_pushes: int, outcome: Outcome) -> SessionClient:
    """Warm up with a short session, then stream sessions until the
    run's seconds are spent, ``MIN_SESSIONS`` sessions completed and
    ``min_pushes`` pushes timed; the last session may end early."""
    client = SessionClient(server, seed, outcome)
    client.session(sessions[0], stop=lambda pushed: pushed >= REPORT_EVERY,
                   op_prefix="w")
    started = time.perf_counter()

    def done(pushed_now: int) -> bool:
        return (time.perf_counter() - started >= seconds
                and len(client.session_s) >= MIN_SESSIONS
                and len(client.push_ms) + pushed_now >= min_pushes)

    for session in sessions:
        client.session(session, stop=done)
        if done(0):
            return client
    raise RuntimeError(f"{len(sessions)} sessions were too few for "
                       f"{min_pushes} pushes")


def _http_overhead(client: SessionClient, spans: list[Span]) -> float:
    """Median over push and report requests of the client round trip
    minus the matching ``SessionManager`` span."""
    manager = {span.op: span.duration for span in spans
               if span.name in ("service.push", "service.report")}
    gaps = [(seconds - manager[op]) * 1000.0
            for op, kind, seconds in client.requests
            if kind in ("push", "report") and op in manager]
    return median(gaps)


def enron_http(seed: int, seconds: float, trace: bool,
               workdir: Path) -> Outcome:
    outcome = Outcome()
    count = max(math.ceil(MIN_PUSHES / inputs.ENRON_MONTHS) + 1,
                math.ceil(seconds / 6.0) + MIN_SESSIONS)
    sessions = inputs.enron_sessions(seed, count)
    outcome.info["input_digest"] = inputs.sessions_digest(sessions)
    untraced = None
    if trace:
        # Tracing overhead: the same sessions through an untraced server
        # started the same way.
        baseline = Server(workdir, "untraced", trace=False)
        try:
            untraced = _stream(baseline, sessions, seed, 0.0, 0, outcome)
        finally:
            baseline.stop()
        server = Server(workdir, "traced", trace=True)
        min_pushes = 0
    else:
        setups = []
        server = None
        for index in range(SETUP_REPS):
            if server is not None:
                server.stop()
            server = Server(workdir, f"server-{index}", trace=False)
            setups.append(server.setup_s)
        outcome.metric("setup_s", median(setups), "s")
        outcome.info["setup_samples_s"] = setups
        min_pushes = MIN_PUSHES
    outcome.processes.append(server.child.env)
    try:
        client = _stream(server, sessions, seed, seconds, min_pushes,
                         outcome)
        rss = server.child.peak_rss_mb()
    finally:
        spans = server.stop()
    outcome.metric("detect_s", median(client.session_s), "s")
    _latencies(outcome, client.push_ms)
    outcome.metric("report_p50_ms", median(client.report_ms), "ms")
    outcome.metric("peak_rss_mb", rss, "MB")
    outcome.info["sessions"] = len(client.session_s)
    outcome.info["report_samples"] = len(client.report_ms)
    finals = client.finals + (untraced.finals if untraced else [])
    aucs = []
    for index, (session, pushed, document) in enumerate(finals):
        if pushed == len(session.bodies):
            scores = np.array([entry["node_scores"]
                               for entry in document["transitions"]])
            aucs.append(gates.report_auc(scores, session.labels))
        # The service's documented parity: a finalized session equals
        # offline detect() on the same sequence.
        offline = repro.detect(session.graph.subsequence(0, pushed),
                               anomalies_per_transition=ANOMALIES,
                               seed=seed)
        outcome.gate(gates.check_session(document, offline),
                     what=f"session {index}: ")
    outcome.metric("node_auc", median(aucs), "ratio")
    if trace:
        _traced_http(outcome, client, untraced, spans)
    outcome.processes.append(process_record("harness (client)"))
    return outcome


def _traced_http(outcome: Outcome, client: SessionClient,
                 untraced: SessionClient, spans: list[Span]) -> None:
    spans = [span for span in spans
             if span.op is not None and span.op.startswith("s")]
    outcome.spans = spans
    outcome.layers = layers.per_op_layers(
        spans, {}, group_of=lambda op: op.split("-", 1)[0])
    outcome.layers["service.http_overhead_ms"] = {
        "value": _http_overhead(client, spans), "unit": "ms",
        "reached": True,
    }
    outcome.layers["service.requests_failed"] = {
        "value": float(client.failed_requests + untraced.failed_requests),
        "unit": "count", "reached": True,
    }
    wall = sum(seconds for op, _, seconds in client.requests
               if op.startswith("s"))
    outcome.shares = layers.self_shares(spans, wall)
    _overhead(outcome, median(untraced.session_s), median(client.session_s))


WORKLOADS = {
    "gm-dense": gm_dense,
    "sparse-30k": sparse_30k,
    "enron-http": enron_http,
    "drift-cluster": drift_cluster,
}
