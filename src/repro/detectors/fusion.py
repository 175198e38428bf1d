"""Score fusion across detector families (Park & Priebe style).

Park, Priebe & Youssef (arXiv:1210.8429) show that fusing several
individually weak graph statistics yields a detector that dominates
each member. This module lifts the idea to whole detectors: a
:class:`FusionDetector` runs CAD, ACT, LAD and the invariant detector
side by side, calibrates each member's event score against that
member's *own* history (prequential — only scores seen so far), and
combines the calibrated values with one of three classic rules:

* ``"stouffer"`` — weighted Stouffer combination of per-member
  z-scores, ``sum(w_i z_i) / sqrt(sum(w_i^2))``;
* ``"fisher"`` — Fisher's method over empirical exceedance
  p-values, ``-2 sum(w_i ln p_i)``;
* ``"rank"`` — weighted mean of each member's empirical rank
  (fraction of that member's past scores below the current one).

Because the calibration uses only per-member event-score histories
(plus each member's own streaming state), the whole fusion state
round-trips through streaming checkpoints bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DetectionError
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import GraphSnapshot
from ..observability import add_counter, trace
from ..core.cad import CadDetector
from ..core.detector import EVENT_SCORE_KEY, EventScoreDetector
from ..core.results import TransitionScores
from ..baselines.act import ActDetector
from .lad import LadDetector
from .invariants import InvariantDetector

#: Supported combination rules.
COMBINE_MODES = ("stouffer", "fisher", "rank")

#: Default member lineup (name -> factory taking a seed).
DEFAULT_MEMBERS = ("cad", "act", "lad", "invariant")


def _make_member(name: str, seed):
    if name == "cad":
        # A fixed root makes the approximate backend a pure function
        # of each snapshot, so a restored fusion stream recomputes
        # identical CAD scores with a cold cache.
        return CadDetector(method="auto",
                           seed=0 if seed is None else seed)
    if name == "act":
        return ActDetector(seed=seed)
    if name == "lad":
        return LadDetector(seed=seed)
    if name == "invariant":
        return InvariantDetector(seed=seed)
    raise DetectionError(
        f"unknown fusion member {name!r}; known: "
        + ", ".join(DEFAULT_MEMBERS)
    )


def _member_event(name: str, scores: TransitionScores) -> float:
    """One member's scalar event score for a transition."""
    if name == "cad":
        return float(scores.total_edge_score())
    return float(scores.extras[EVENT_SCORE_KEY][0])


def stouffer_combine(zscores: np.ndarray,
                     weights: np.ndarray) -> float:
    """Weighted Stouffer combination of member z-scores."""
    denominator = float(np.sqrt((weights ** 2).sum()))
    if denominator <= 0:
        return 0.0
    return float((weights * zscores).sum() / denominator)


def fisher_combine(pvalues: np.ndarray,
                   weights: np.ndarray) -> float:
    """Weighted Fisher combination ``-2 sum(w ln p)`` of p-values."""
    return float(-2.0 * (weights * np.log(pvalues)).sum())


class FusionDetector(EventScoreDetector):
    """Calibrated fusion of CAD + ACT + LAD + invariant scores.

    Members run on the same transitions; each member's event score is
    calibrated prequentially against that member's own score history
    and the calibrated values are combined (see module docstring).
    Node attribution is the weighted mean of the members' normalised
    node scores, so every member family contributes to the ranking on
    its own scale.

    Args:
        members: member names to fuse (subset of cad/act/lad/
            invariant; order defines the weight order).
        combine: one of :data:`COMBINE_MODES`.
        weights: per-member weights (default: uniform).
        seed: forwarded to the members that accept one.
    """

    name = "FUSION"

    def __init__(self, members=DEFAULT_MEMBERS,
                 combine: str = "stouffer",
                 weights=None,
                 seed=None):
        members = tuple(members)
        if not members:
            raise DetectionError("fusion needs at least one member")
        if len(set(members)) != len(members):
            raise DetectionError(f"duplicate fusion members: {members}")
        if combine not in COMBINE_MODES:
            raise DetectionError(
                f"unknown combine mode {combine!r}; known: "
                + ", ".join(COMBINE_MODES)
            )
        if weights is None:
            weights = np.ones(len(members))
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(members),):
            raise DetectionError(
                f"need {len(members)} weights, got shape {weights.shape}"
            )
        if not np.all(weights > 0):
            raise DetectionError("fusion weights must be positive")
        self._member_names = members
        self._combine = combine
        self._weights = weights
        self._members = {
            name: _make_member(name, seed) for name in members
        }
        self._event_history: dict[str, list[float]] = {
            name: [] for name in members
        }

    @property
    def members(self) -> tuple[str, ...]:
        """The fused member names, in weight order."""
        return self._member_names

    @property
    def combine(self) -> str:
        """The combination rule in use."""
        return self._combine

    def begin_sequence(self, graph: DynamicGraph) -> None:
        """Reset every member and the calibration histories."""
        for member in self._members.values():
            member.begin_sequence(graph)
        self._event_history = {
            name: [] for name in self._member_names
        }

    def score_transition(self, g_t: GraphSnapshot,
                         g_t1: GraphSnapshot) -> TransitionScores:
        g_t.require_same_universe(g_t1)
        with trace("fusion.transition", members=len(self._member_names)):
            events = {}
            member_scores = {}
            for name in self._member_names:
                scores = self._members[name].score_transition(g_t, g_t1)
                member_scores[name] = scores
                events[name] = _member_event(name, scores)
            fused = self._combine_events(events)
            for name in self._member_names:
                self._event_history[name].append(events[name])
        add_counter("fusion_transitions_total")
        node_scores = np.zeros(g_t.num_nodes)
        for name, weight in zip(self._member_names, self._weights):
            node_scores = node_scores + (
                weight * member_scores[name].normalized_node_scores()
            )
        node_scores = node_scores / self._weights.sum()
        return TransitionScores(
            universe=g_t.universe,
            edge_rows=np.zeros(0, dtype=np.int64),
            edge_cols=np.zeros(0, dtype=np.int64),
            edge_scores=np.zeros(0),
            node_scores=node_scores,
            detector=self.name,
            extras={
                EVENT_SCORE_KEY: np.array([fused]),
                "member_events": np.array([
                    events[name] for name in self._member_names
                ]),
            },
        )

    def _combine_events(self, events: dict[str, float]) -> float:
        """Fuse this transition's member events against each member's
        own (prequential) history."""
        if self._combine == "stouffer":
            zscores = np.array([
                self._zscore(name, events[name])
                for name in self._member_names
            ])
            return stouffer_combine(zscores, self._weights)
        if self._combine == "fisher":
            pvalues = np.array([
                self._pvalue(name, events[name])
                for name in self._member_names
            ])
            return fisher_combine(pvalues, self._weights)
        ranks = np.array([
            self._rank(name, events[name])
            for name in self._member_names
        ])
        return float((self._weights * ranks).sum()
                     / self._weights.sum())

    def _zscore(self, name: str, event: float) -> float:
        history = np.asarray(self._event_history[name])
        if history.size < 2:
            return 0.0
        scale = float(history.std())
        if scale <= 0:
            scale = 1.0
        return (event - float(history.mean())) / scale

    def _pvalue(self, name: str, event: float) -> float:
        """Empirical exceedance p-value with a +1 prior (never 0)."""
        history = np.asarray(self._event_history[name])
        return float(
            (1 + int((history >= event).sum())) / (history.size + 1)
        )

    def _rank(self, name: str, event: float) -> float:
        """Fraction of the member's past scores strictly below
        ``event`` (0 with no history: nothing to stand out from)."""
        history = np.asarray(self._event_history[name])
        if history.size == 0:
            return 0.0
        return float((history < event).sum() / history.size)

    def streaming_state(self) -> dict[str, np.ndarray]:
        """Member substates and calibration histories, flattened.

        Member substates are prefixed ``"<member>."``; per-member event
        histories live under ``"history.<member>"``. The CAD member's
        JL projection is keyed by edge under a fixed root, so it needs
        no serialized state.
        """
        state: dict[str, np.ndarray] = {}
        for name in self._member_names:
            member = self._members[name]
            substate = getattr(member, "streaming_state", None)
            if substate is not None:
                for key, value in substate().items():
                    state[f"{name}.{key}"] = value
            state[f"history.{name}"] = np.asarray(
                self._event_history[name], dtype=np.float64
            )
        return state

    def load_streaming_state(self,
                             state: dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`streaming_state`."""
        for name in self._member_names:
            member = self._members[name]
            loader = getattr(member, "load_streaming_state", None)
            if loader is not None:
                prefix = f"{name}."
                loader({
                    key[len(prefix):]: value
                    for key, value in state.items()
                    if key.startswith(prefix)
                })
            history = np.asarray(state[f"history.{name}"],
                                 dtype=np.float64)
            self._event_history[name] = [float(v) for v in history]
