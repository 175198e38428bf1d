"""High-level convenience API: detector registry and one-call detect().

For users who want results without assembling detector objects::

    from repro import detect

    report = detect(graph, detector="cad", anomalies_per_transition=5)
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Callable

from ..core.cad import CadDetector, build_report
from ..core.detector import Detector, EventScoreDetector
from ..core.results import DetectionReport
from ..core.thresholds import select_global_threshold
from ..detectors.registry import get_method, list_methods
from ..exceptions import DetectionError
from ..graphs.dynamic import DynamicGraph
from ..observability import build_metrics_document, collecting, trace
from ..parallel.engine import ParallelCadDetector

#: Registered detector factories by lowercase name (one view of the
#: method registry, kept for backward compatibility — the registry in
#: :mod:`repro.detectors.registry` is the source of truth).
DETECTOR_FACTORIES: dict[str, Callable[..., Detector]] = {
    method.name: method.factory for method in list_methods()
}


#: Environment variable consulted for a default worker count when the
#: ``workers=`` argument is not given (used by CI to exercise the whole
#: suite through the parallel engine: ``REPRO_TEST_WORKERS=2 pytest``).
WORKERS_ENV_VAR = "REPRO_TEST_WORKERS"


def _default_workers() -> int | None:
    """Worker count from the environment, or ``None`` for serial."""
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        workers = int(raw)
    except ValueError:
        return None
    return workers if workers > 1 else None


def make_detector(name: str, **kwargs) -> Detector:
    """Instantiate a registered detector by name.

    Args:
        name: a registered method name (case-insensitive) — see
            :func:`repro.detectors.registry.method_names`.
        **kwargs: forwarded to the detector constructor.

    Raises:
        DetectionError: on an unknown name (the message lists every
            registered method).
    """
    return get_method(name.lower()).factory(**kwargs)


def _resolve_detector(detector: str | Detector,
                      workers: int | None,
                      shard_by: str,
                      detector_kwargs: dict) -> Detector:
    """Normalise a ``detector=`` argument into a detector instance.

    Promotes CAD to :class:`~repro.parallel.ParallelCadDetector` when a
    worker count above 1 is requested (explicitly or via the
    ``REPRO_TEST_WORKERS`` environment variable).
    """
    parallel_cad = workers is not None and workers > 1
    if isinstance(detector, str):
        if parallel_cad and detector.lower() == "cad":
            return ParallelCadDetector(
                workers=workers, shard_by=shard_by, **detector_kwargs
            )
        return make_detector(detector, **detector_kwargs)
    if detector_kwargs:
        raise DetectionError(
            "detector_kwargs are only valid with a detector name"
        )
    if (
        parallel_cad
        and isinstance(detector, CadDetector)
        and not isinstance(detector, ParallelCadDetector)
    ):
        return ParallelCadDetector.from_detector(
            detector, workers=workers, shard_by=shard_by
        )
    return detector


def detect_windowed(graph: DynamicGraph,
                    window: int,
                    stride: int | None = None,
                    detector: str | Detector = "cad",
                    anomalies_per_transition: int = 5,
                    workers: int | None = None,
                    shard_by: str = "auto",
                    **detector_kwargs) -> list[DetectionReport]:
    """Run detection per sliding window of a long history.

    One global δ over a years-long history lets a high-churn regime
    swallow the entire anomaly budget; windowing re-derives δ inside
    each window so every era is judged against its own baseline.

    Args:
        graph: the full sequence.
        window: snapshots per window (>= 2).
        stride: window start offset; defaults to ``window - 1`` so
            consecutive windows share exactly one snapshot and every
            transition is covered exactly once.
        detector / anomalies_per_transition / workers / shard_by /
            detector_kwargs: as in :func:`detect`. The parallel
            detector is built once and reused, so each window's δ is
            still derived independently.

    Returns:
        One report per window, in order.
    """
    from ..graphs.ingest import sliding_windows

    if stride is None:
        stride = max(window - 1, 1)
    if workers is None:
        workers = _default_workers()
    detector = _resolve_detector(detector, workers, shard_by,
                                 detector_kwargs)
    windows = sliding_windows(graph, window=window, stride=stride)
    # Anchor a final window at the end when the stride leaves a tail
    # uncovered, so every transition belongs to at least one window.
    covered = (len(windows) - 1) * stride + window
    if covered < len(graph):
        windows.append(graph.subsequence(len(graph) - window,
                                         len(graph)))
    return [
        detect(piece, detector=detector,
               anomalies_per_transition=anomalies_per_transition)
        for piece in windows
    ]


def detect(graph: DynamicGraph,
           detector: str | Detector = "cad",
           anomalies_per_transition: int = 5,
           delta: float | None = None,
           workers: int | None = None,
           shard_by: str = "auto",
           metrics: bool = False,
           **detector_kwargs) -> DetectionReport:
    """Run a detector over a dynamic graph and return discrete results.

    Edge-scoring detectors (CAD/ADJ/COM) go through Algorithm 1's
    minimal-set thresholding with the paper's global-δ selection;
    node-only detectors (ACT/CLC/AFM) report their top nodes per
    flagged transition via their own ``detect`` when available.

    Args:
        graph: dynamic graph with >= 2 snapshots.
        detector: registered name or a ready detector instance.
        anomalies_per_transition: the δ-selection budget ``l``.
        delta: explicit δ overriding selection (edge detectors only).
        workers: score CAD transitions with this many processes
            (``repro.parallel``); ``None`` or 1 runs serially. Defaults
            to the ``REPRO_TEST_WORKERS`` environment variable when
            set. Only CAD parallelises; other detectors ignore this.
        shard_by: ``"transition"``, ``"component"`` or ``"auto"``;
            kept for compatibility, every value shards by transition
            (see :class:`~repro.parallel.ParallelCadDetector`).
        metrics: collect tracing/metrics for this run and attach the
            merged document (including per-worker breakdowns on
            parallel runs) as ``report.metrics``.
        **detector_kwargs: constructor arguments when ``detector`` is
            a name.
    """
    if workers is None:
        workers = _default_workers()
    detector = _resolve_detector(detector, workers, shard_by,
                                 detector_kwargs)
    if not metrics:
        return _run_detector(detector, graph,
                             anomalies_per_transition, delta)
    with collecting() as registry:
        with trace("detect", detector=detector.name):
            report = _run_detector(detector, graph,
                                   anomalies_per_transition, delta)
    worker_states = getattr(detector, "last_worker_metrics", None)
    document = build_metrics_document(registry,
                                      worker_states=worker_states or None)
    return dataclasses.replace(report, metrics=document)


def _run_detector(detector: Detector,
                  graph: DynamicGraph,
                  anomalies_per_transition: int,
                  delta: float | None) -> DetectionReport:
    """Dispatch one resolved detector instance over a sequence."""
    if isinstance(detector, CadDetector):
        return detector.detect(
            graph,
            anomalies_per_transition=(
                None if delta is not None else anomalies_per_transition
            ),
            delta=delta,
        )
    if isinstance(detector, EventScoreDetector):
        return detector.detect(graph, top_nodes=anomalies_per_transition,
                               event_threshold=delta)

    scored = detector.score_sequence(graph)
    if any(s.num_scored_edges for s in scored):
        if delta is None:
            delta = select_global_threshold(
                scored, anomalies_per_transition
            )
        return build_report(graph, scored, delta, detector.name)
    # Node-only detector without its own policy: top-l nodes on the
    # transitions whose peak node score exceeds the sequence median.
    import numpy as np

    peaks = np.array([float(s.node_scores.max()) for s in scored])
    threshold = float(np.median(peaks)) if delta is None else delta
    from ..core.results import TransitionResult

    transitions = []
    for index, scores in enumerate(scored):
        nodes = []
        if peaks[index] > threshold:
            nodes = [
                label for label, value in
                scores.top_nodes(anomalies_per_transition) if value > 0
            ]
        transitions.append(TransitionResult(
            index=index,
            time_from=graph[index].time,
            time_to=graph[index + 1].time,
            anomalous_edges=[],
            anomalous_nodes=nodes,
            scores=scores,
        ))
    return DetectionReport(
        detector=detector.name, threshold=threshold,
        transitions=transitions,
    )
