"""Streaming detection: process snapshots as they arrive.

The paper's threshold-selection procedure is offline (one δ for the
whole sequence) but notes it "can be suitably modified in an online
setting by aggregating scores up to the current graph instance and
updating the threshold". That online mode is one lifecycle, written
once in :class:`StreamLifecycle`:

* snapshots are pushed one at a time (:meth:`~StreamLifecycle.push`);
* each push scores the newest transition against the previous
  snapshot, reusing the previous snapshot's backend where the scorer
  caches one;
* the threshold is re-derived from all scores seen so far and the
  freshly scored transition is cut at the *current* threshold;
* ``finalize`` re-cuts every past transition at the final threshold,
  converging to exactly the offline result.

On top of the paper's online mode every stream is *resilient*: with a
``sanitize`` policy set, dirty raw matrices can be pushed directly
(:meth:`~StreamLifecycle.push_raw`), defective snapshots are repaired
or quarantined-and-skipped (scoring resumes against the last good
snapshot), a solve that exhausts its fallback chain quarantines the
offending snapshot instead of killing the stream, and the whole stream
state round-trips through :meth:`~StreamLifecycle.checkpoint` /
:meth:`~StreamLifecycle.restore`.

:class:`StreamingCadDetector` adds CAD's rule on top: the global-``l``
δ (via :class:`~repro.core.thresholds.OnlineThresholdSelector`) and
Algorithm 1's cut. The event-score wrapper
:class:`~repro.detectors.StreamingDetector` adds the event-quantile
rule instead.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_int
from ..exceptions import CheckpointError, DetectionError, SolverError
from ..graphs.dynamic import DynamicGraph
from ..graphs.sanitize import SANITIZE_POLICIES, sanitize_snapshot
from ..graphs.snapshot import GraphSnapshot, NodeUniverse
from ..resilience.checkpoint import (
    FORMAT as CHECKPOINT_FORMAT,
    VERSION as CHECKPOINT_VERSION,
    read_checkpoint,
    require_checkpoint_format,
    write_checkpoint,
)
from .cad import CadDetector, build_report
from .results import DetectionReport, TransitionResult, TransitionScores
from .thresholds import OnlineThresholdSelector, anomaly_sets_at


def _kind_label(kind: str | None) -> str:
    return "a CAD stream (no kind)" if kind is None else f"kind {kind!r}"


class StreamLifecycle:
    """The push → score → threshold → cut lifecycle of every stream.

    Subclasses build the per-transition detector and supply the
    threshold rule (:meth:`_update_threshold`, :meth:`_cut`), the
    checkpoint ``config`` (:meth:`_config`, which must name the
    constructor arguments it restores) and any private state carried
    in a checkpoint (:meth:`_private_state`,
    :meth:`_load_private_state`).

    Args:
        anomalies_per_transition: the per-transition budget ``l``.
        warmup: transitions to absorb before emitting anomalies (early
            threshold estimates are noisy; during warmup pushes return
            ``None``).
        sanitize: optional resilience policy (``"raise"``, ``"repair"``
            or ``"quarantine"``) governing :meth:`push_raw` and
            solver-failure handling. ``None`` (default) keeps the
            strict behaviour: every error propagates.
    """

    #: ``config["kind"]`` of this stream type's checkpoints (``None``:
    #: the config carries no kind, as for CAD streams).
    KIND: str | None = None

    _incremental = False

    def __init__(self, anomalies_per_transition: int, warmup: int,
                 sanitize: str | None):
        if sanitize is not None and sanitize not in SANITIZE_POLICIES:
            raise DetectionError(
                f"sanitize must be None or one of {SANITIZE_POLICIES}, "
                f"got {sanitize!r}"
            )
        self._l = check_positive_int(
            anomalies_per_transition, "anomalies_per_transition"
        )
        self._warmup = check_positive_int(warmup, "warmup")
        self._sanitize = sanitize
        self._detector: Any = None
        self._health: Any = None
        self._previous: GraphSnapshot | None = None
        self._snapshots: list[GraphSnapshot] = []
        self._scored: list[TransitionScores] = []
        self._push_count = 0

    @property
    def num_transitions(self) -> int:
        """Transitions scored so far."""
        return len(self._scored)

    @property
    def health(self):
        """The run's :class:`~repro.resilience.health.HealthMonitor`."""
        return self._health

    @property
    def detector(self):
        """The inner per-transition detector (for CAD streams e.g. for
        building a parallel twin via
        :meth:`~repro.parallel.ParallelCadDetector.from_detector`)."""
        return self._detector

    @property
    def latest_snapshot(self) -> GraphSnapshot | None:
        """The last accepted snapshot (``None`` before the first push)."""
        return self._previous

    @property
    def sanitize_policy(self) -> str | None:
        """The configured sanitize policy (``None`` = strict)."""
        return self._sanitize

    @property
    def incremental(self) -> bool:
        """Whether exact pseudoinverses advance by rank-one updates."""
        return self._incremental

    def push(self, snapshot: GraphSnapshot) -> TransitionResult | None:
        """Ingest the next snapshot; return the newest transition's
        result cut at the current threshold.

        Returns ``None`` for the very first snapshot and while the
        threshold is still warming up. With ``sanitize`` set, a
        snapshot whose transition cannot be scored (the solver chain
        was exhausted) is quarantined — recorded in :attr:`health`,
        skipped, and the next push scores against the last good
        snapshot. Without a policy the
        :class:`~repro.exceptions.SolverError` propagates.
        """
        if self._previous is not None:
            self._previous.require_same_universe(snapshot)
        self._admit(snapshot)
        position = self._push_count
        self._push_count += 1
        if self._previous is None:
            self._snapshots.append(snapshot)
            self._previous = snapshot
            return None
        try:
            scores = self._detector.score_transition(self._previous, snapshot)
        except SolverError as error:
            if self._sanitize is None:
                raise
            self.health.record_quarantine(
                position, snapshot.time, f"unscorable transition: {error}"
            )
            return None
        return self._append(snapshot, scores)

    def _admit(self, snapshot: GraphSnapshot) -> None:
        """Reject a snapshot this stream cannot score (default: none)."""

    def _append(self, snapshot: GraphSnapshot,
                scores: TransitionScores) -> TransitionResult | None:
        """Record a scored transition, update the threshold, and cut
        it at the current threshold (``None`` during warmup)."""
        self._snapshots.append(snapshot)
        self._scored.append(scores)
        self._previous = snapshot
        threshold = self._update_threshold(scores)
        if threshold is None:
            return None
        return self._cut(len(self._scored) - 1, scores, threshold)

    def push_raw(self, adjacency: sp.spmatrix | np.ndarray,
                 time: Any = None,
                 universe: NodeUniverse | None = None,
                 ) -> TransitionResult | None:
        """Sanitize a raw adjacency matrix and push the result.

        The stream-facing ingest point: accepts matrices that may carry
        NaN/inf weights, negative weights, asymmetry, or self-loops and
        resolves them under the stream's ``sanitize`` policy
        (``"repair"`` when none was configured). A repaired snapshot is
        recorded in :attr:`health` and pushed; a quarantined one is
        recorded and skipped entirely — the stream continues and the
        next good snapshot is scored against the last good one.

        Args:
            adjacency: the raw (possibly dirty) adjacency matrix.
            time: the snapshot's time label.
            universe: node universe for the *first* snapshot (labelled
                streams lose their labels without it); later pushes
                reuse the stream's universe.

        Returns:
            The newest transition's result, or ``None`` for the first
            snapshot, during warmup, or when this snapshot was
            quarantined.

        Raises:
            SanitizationError: under ``sanitize="raise"`` on any defect.
        """
        policy = self._sanitize if self._sanitize is not None else "repair"
        if self._previous is not None:
            universe = self._previous.universe
        snapshot, report = sanitize_snapshot(
            adjacency, universe, time=time, policy=policy
        )
        if snapshot is None:
            self.health.record_quarantine(
                self._push_count, time, report.describe()
            )
            self._push_count += 1
            return None
        if report.repaired:
            self.health.record_repair(report.entries_fixed)
        return self.push(snapshot)

    def checkpoint(self, path: str | Path | None = None) -> dict[str, Any]:
        """Capture the stream's full state as plain data.

        The state holds everything needed to resume the stream: the
        constructor ``config``, snapshots (CSR components), scored
        transitions, push count, health totals, and the stream type's
        private state (none for CAD, the wrapped detector's
        ``detector_state`` arrays for event streams). Feed
        it to :meth:`restore`, or persist it with
        :func:`~repro.resilience.checkpoint.write_checkpoint` (done
        automatically when ``path`` is given).

        Args:
            path: optional file to also write the checkpoint to.

        Raises:
            CheckpointError: when the stream is empty, or (when writing
                to ``path``) when labels/times are not JSON-friendly.
        """
        if not self._snapshots:
            raise CheckpointError(
                "nothing to checkpoint: no snapshot has been pushed"
            )
        universe = self._snapshots[0].universe
        state: dict[str, Any] = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": self._config(),
            "universe": list(universe),
            "num_nodes": len(universe),
            "snapshots": [
                {
                    "time": snapshot.time,
                    "data": snapshot.adjacency.data,
                    "indices": snapshot.adjacency.indices,
                    "indptr": snapshot.adjacency.indptr,
                }
                for snapshot in self._snapshots
            ],
            "scored": [
                {
                    "detector": scores.detector,
                    "edge_rows": scores.edge_rows,
                    "edge_cols": scores.edge_cols,
                    "edge_scores": scores.edge_scores,
                    "node_scores": scores.node_scores,
                    "extras": dict(scores.extras),
                }
                for scores in self._scored
            ],
            "push_count": self._push_count,
            "health": self._health.state(),
            **self._private_state(),
        }
        if path is not None:
            write_checkpoint(state, path)
        return state

    @classmethod
    def restore(cls, state: dict[str, Any] | str | Path, **kwargs):
        """Rebuild a stream from a checkpoint (dict or file path).

        The constructor arguments stored in the checkpoint's ``config``
        are reused; explicit ``kwargs`` override them. Arguments a
        checkpoint cannot hold must be re-supplied — for CAD streams
        the inner detector's construction arguments (``method``,
        ``k``, ``solver``, ...), which should match the original run.
        The threshold is replayed deterministically from the stored
        scores, so a restored stream finalises to the same report as an
        uninterrupted one (for an approximate CAD stream, when it is
        restored with the same integer ``seed``: the seed keys the JL
        projection).

        Raises:
            CheckpointError: on a foreign, corrupt, or wrong-version
                checkpoint, or one written by the other stream type.
        """
        if not isinstance(state, dict):
            state = read_checkpoint(state)
        require_checkpoint_format(state)
        try:
            config = dict(state["config"])
            kind = config.pop("kind", None)
            if kind != cls.KIND:
                raise CheckpointError(
                    f"{cls.__name__}.restore cannot read this "
                    f"checkpoint: it holds {_kind_label(kind)}, not "
                    f"{_kind_label(cls.KIND)}"
                )
            options = config.pop("options", None) or {}
            stream = cls(**{**config, **options, **kwargs})
            universe = NodeUniverse(state["universe"])
            n = int(state["num_nodes"])
            for entry in state["snapshots"]:
                matrix = sp.csr_matrix(
                    (
                        np.asarray(entry["data"], dtype=np.float64),
                        np.asarray(entry["indices"]),
                        np.asarray(entry["indptr"]),
                    ),
                    shape=(n, n),
                )
                stream._snapshots.append(
                    GraphSnapshot(matrix, universe, entry["time"])
                )
            for entry in state["scored"]:
                stream._scored.append(TransitionScores(
                    universe=universe,
                    edge_rows=np.asarray(entry["edge_rows"],
                                         dtype=np.int64),
                    edge_cols=np.asarray(entry["edge_cols"],
                                         dtype=np.int64),
                    edge_scores=np.asarray(entry["edge_scores"],
                                           dtype=np.float64),
                    node_scores=np.asarray(entry["node_scores"],
                                           dtype=np.float64),
                    detector=entry["detector"],
                    extras={
                        name: np.asarray(extra)
                        for name, extra in entry["extras"].items()
                    },
                ))
            stream._previous = (
                stream._snapshots[-1] if stream._snapshots else None
            )
            stream._push_count = int(state["push_count"])
            stream._health.load_state(state["health"])
            stream._load_private_state(state)
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint state: {exc}"
            ) from exc
        return stream

    def _update_threshold(self, scores: TransitionScores) -> float | None:
        """Fold one transition's scores into the threshold; return the
        current threshold (``None`` during warmup)."""
        raise NotImplementedError

    def _cut(self, index: int, scores: TransitionScores,
             threshold: float) -> TransitionResult:
        """Cut transition ``index`` at ``threshold``."""
        raise NotImplementedError

    def _config(self) -> dict[str, Any]:
        """The checkpoint ``config``: restorable constructor arguments
        (plus ``kind`` when :attr:`KIND` is set)."""
        raise NotImplementedError

    def _private_state(self) -> dict[str, Any]:
        """Stream-type state stored at the checkpoint's top level."""
        raise NotImplementedError

    def _load_private_state(self, state: dict[str, Any]) -> None:
        """Reload :meth:`_private_state` after the history is restored."""
        raise NotImplementedError


class StreamingCadDetector(StreamLifecycle):
    """Online CAD over an unbounded snapshot stream.

    Args:
        anomalies_per_transition: the δ-selection budget ``l``.
        warmup: transitions to absorb before emitting anomalies
            (during warmup pushes return ``None``).
        sanitize: optional resilience policy (see
            :class:`StreamLifecycle`).
        incremental: advance the exact backend's Laplacian
            pseudoinverse by rank-one updates instead of rebuilding it
            per push — the commute calculator's delta tier
            (:func:`~repro.linalg.factorcache.updated_pseudoinverse`)
            with no edit budget. A transition touching ``q`` edges then
            costs O(q·n²) instead of O(n³); component splits fall back
            to a full build. Requires the exact backend
            (``method="exact"``, or ``"auto"`` resolving to exact);
            scores match the non-incremental stream up to roundoff.
        **cad_kwargs: forwarded to :class:`~repro.core.CadDetector`
            (``method``, ``k``, ``seed``, ``solver``, ...).
            ``factor_cache="shared"`` makes sessions share the
            process-wide factorization cache
            (:mod:`repro.linalg.factorcache`): a stream resumed from a
            checkpoint — or a second stream revisiting the same
            snapshot content — reuses the cached backend instead of
            re-factorizing.
    """

    def __init__(self, anomalies_per_transition: int = 5,
                 warmup: int = 3,
                 sanitize: str | None = None,
                 incremental: bool = False,
                 **cad_kwargs):
        super().__init__(anomalies_per_transition, warmup, sanitize)
        self._incremental = bool(incremental)
        if self._incremental:
            cad_kwargs["delta_budget"] = sys.maxsize
        self._detector = CadDetector(**cad_kwargs)
        self._health = self._detector.calculator.health
        self._selector = OnlineThresholdSelector(self._l, warmup=self._warmup)

    @property
    def current_delta(self) -> float | None:
        """The current online δ (``None`` during warmup)."""
        return self._selector.current()

    @property
    def incremental_recomputes(self) -> int:
        """Exact pseudoinverses the calculator built from scratch (0
        before the first scored push; under ``incremental=True`` every
        other one was a rank-one update)."""
        return self._detector.calculator.exact_builds

    def _admit(self, snapshot: GraphSnapshot) -> None:
        if (self._incremental
                and self._detector.calculator.resolve_method(
                    snapshot.num_nodes) != "exact"):
            raise DetectionError(
                "incremental=True requires the exact commute-time "
                "backend; construct the stream with method='exact' (or "
                "'auto' with the node count within exact_limit)"
            )

    def ingest_scored(self, snapshot: GraphSnapshot,
                      scores: TransitionScores) -> TransitionResult | None:
        """Ingest a snapshot whose transition was scored externally.

        The batch-ingest primitive behind :mod:`repro.service`: a batch
        of snapshots can be scored by the parallel engine
        (:class:`~repro.parallel.ParallelCadDetector`) and folded into
        the stream one at a time with exactly the bookkeeping
        :meth:`push` performs — δ update, history append, online cut —
        minus the scoring itself. ``scores`` must be the CAD scores of
        the transition ``previous -> snapshot``.

        Raises:
            DetectionError: before any snapshot was pushed, or under
                ``incremental=True`` (its scores must come from the
                stream's own rank-one-updated pseudoinverses).
        """
        if self._previous is None:
            raise DetectionError(
                "ingest_scored needs a previous snapshot; push the "
                "first snapshot before ingesting scored transitions"
            )
        if self._incremental:
            raise DetectionError(
                "ingest_scored is not available with incremental=True: "
                "an incremental stream scores every transition itself, "
                "advancing each pseudoinverse from the previous one"
            )
        self._previous.require_same_universe(snapshot)
        self._push_count += 1
        return self._append(snapshot, scores)

    def finalize(self) -> DetectionReport:
        """Re-cut the whole history at the final δ (offline-equivalent).

        The report carries the run's
        :class:`~repro.resilience.health.HealthReport` when any
        degradation (fallbacks, repairs, quarantines) occurred.

        Raises:
            DetectionError: before any transition has been scored or
                when every transition carried zero score mass.
        """
        if not self._scored:
            raise DetectionError("no transitions have been scored yet")
        delta = self._selector.current()
        if delta is None:
            raise DetectionError(
                "the online threshold never initialised (zero score "
                "mass so far)"
            )
        graph = DynamicGraph(self._snapshots)
        health = self.health.report()
        return build_report(graph, self._scored, delta, "CAD-streaming",
                            health=None if health.is_empty() else health)

    def _update_threshold(self, scores: TransitionScores) -> float | None:
        return self._selector.update(scores)

    def _cut(self, index: int, scores: TransitionScores,
             delta: float) -> TransitionResult:
        edge_mask, node_indices, _node_scores = anomaly_sets_at(
            scores, delta
        )
        label = scores.universe.label_of
        members = np.flatnonzero(edge_mask)
        order = members[np.argsort(-scores.edge_scores[members])]
        return TransitionResult(
            index=index,
            time_from=self._snapshots[index].time,
            time_to=self._snapshots[index + 1].time,
            anomalous_edges=[
                (label(int(scores.edge_rows[p])),
                 label(int(scores.edge_cols[p])),
                 float(scores.edge_scores[p]))
                for p in order
            ],
            anomalous_nodes=[label(int(i)) for i in node_indices],
            scores=scores,
        )

    def _config(self) -> dict[str, Any]:
        return {
            "anomalies_per_transition": self._l,
            "warmup": self._warmup,
            "sanitize": self._sanitize,
            "incremental": self._incremental,
        }

    def _private_state(self) -> dict[str, Any]:
        return {}

    def _load_private_state(self, state: dict[str, Any]) -> None:
        # One selection over the restored scores rebuilds the online δ
        # exactly, as replaying every update would.
        self._selector.extend(self._scored)
