"""Streaming wrapper for event-score detectors.

:class:`StreamingDetector` runs any registered
:class:`~repro.core.detector.EventScoreDetector` (ACT, LAD, the
invariant and fusion detectors) through the stream lifecycle it shares
with :class:`~repro.core.streaming.StreamingCadDetector`
(:class:`~repro.core.streaming.StreamLifecycle`: push / push_raw /
checkpoint / restore), so ``repro.service`` sessions can run
``method=lad|fusion|...`` through the exact plumbing (WAL replay,
evict/resume, failover) built for CAD. Only the threshold rule
differs:

* each push cuts the newest transition at the *current* event
  threshold — the configured quantile of the event scores seen so far
  (``None`` during warmup);
* :meth:`~StreamingDetector.finalize` re-cuts the whole history at the
  final threshold, matching the batch
  :meth:`~repro.core.detector.EventScoreDetector.detect` exactly;
* checkpoints carry the wrapped detector's private state (signature
  windows, calibration histories, ...) as ``detector_state`` arrays —
  a restored stream continues bit-for-bit.
"""

from __future__ import annotations

from typing import Any

from ..core.detector import (
    EventScoreDetector,
    build_event_report,
    cut_event_transition,
    event_cut,
    event_scores,
)
from ..core.results import DetectionReport, TransitionResult, TransitionScores
from ..core.streaming import StreamLifecycle
from ..exceptions import DetectionError
from ..observability import add_counter
from ..resilience.health import HealthMonitor
from .registry import get_method

#: Checkpoint config marker distinguishing wrapper checkpoints from
#: CAD stream checkpoints (which have no ``kind``).
STREAM_KIND = "detector-stream"


class StreamingDetector(StreamLifecycle):
    """Online wrapper around one event-score detector.

    Args:
        method: registered streaming-capable method name (``act``,
            ``lad``, ``invariant``, ``fusion``).
        anomalies_per_transition: nodes reported per flagged
            transition.
        warmup: transitions to absorb before emitting anomalies (the
            early quantile threshold is meaningless).
        sanitize: optional resilience policy for :meth:`push_raw` and
            scoring failures (same semantics as the CAD stream).
        event_quantile: threshold quantile over the event scores seen
            so far (default: the detector's own
            ``default_event_quantile``).
        **options: forwarded to the method's factory.
    """

    KIND = STREAM_KIND

    def __init__(self, method: str,
                 anomalies_per_transition: int = 5,
                 warmup: int = 3,
                 sanitize: str | None = None,
                 event_quantile: float | None = None,
                 **options):
        entry = get_method(method)
        if not entry.streaming:
            raise DetectionError(
                f"method {entry.name!r} is not streaming-capable"
            )
        super().__init__(anomalies_per_transition, warmup, sanitize)
        detector = entry.factory(**options)
        if not isinstance(detector, EventScoreDetector):
            raise DetectionError(
                f"method {entry.name!r} does not produce event scores; "
                "use StreamingCadDetector for CAD streams"
            )
        if event_quantile is None:
            event_quantile = detector.default_event_quantile
        if not 0.0 <= event_quantile <= 1.0:
            raise DetectionError(
                f"event_quantile must lie in [0, 1], got {event_quantile}"
            )
        self._method = entry.name
        self._options = dict(options)
        self._quantile = float(event_quantile)
        self._detector = detector
        self._health = HealthMonitor()

    @property
    def method(self) -> str:
        """The wrapped registry method name."""
        return self._method

    @property
    def current_delta(self) -> float | None:
        """The current event threshold (``None`` during warmup)."""
        if len(self._scored) < self._warmup:
            return None
        return event_cut(event_scores(self._scored), self._quantile)

    def finalize(self) -> DetectionReport:
        """Re-cut the whole history at the final threshold.

        Converges to exactly the batch
        :meth:`~repro.core.detector.EventScoreDetector.detect` result
        for the same sequence and quantile.
        """
        if not self._scored:
            raise DetectionError("no transitions have been scored yet")
        threshold = event_cut(event_scores(self._scored), self._quantile)
        health = self._health.report()
        return build_event_report(
            [snapshot.time for snapshot in self._snapshots],
            self._scored, threshold, self._l,
            f"{self._detector.name}-streaming",
            health=None if health.is_empty() else health,
        )

    def _update_threshold(self, scores: TransitionScores) -> float | None:
        add_counter("detector_stream_pushes_total")
        return self.current_delta

    def _cut(self, index: int, scores: TransitionScores,
             threshold: float) -> TransitionResult:
        return cut_event_transition(
            index, self._snapshots[index].time,
            self._snapshots[index + 1].time,
            scores, threshold, self._l,
        )

    def _config(self) -> dict[str, Any]:
        return {
            "kind": STREAM_KIND,
            "method": self._method,
            "anomalies_per_transition": self._l,
            "warmup": self._warmup,
            "sanitize": self._sanitize,
            "event_quantile": self._quantile,
            "options": self._options,
        }

    def _private_state(self) -> dict[str, Any]:
        return {"detector_state": self._detector.streaming_state()}

    def _load_private_state(self, state: dict[str, Any]) -> None:
        self._detector.load_streaming_state(
            state.get("detector_state") or {}
        )
