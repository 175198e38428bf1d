"""Threshold machinery for Algorithm 1 and the paper's δ selection.

Three pieces:

* :func:`minimal_edge_set` — given per-edge scores and a level δ, find
  the paper's ``E_t``: the *smallest* edge set ``S`` whose removal
  leaves residual score mass below δ (Section 2.4.1: sort, peel from
  the top).
* :func:`select_global_threshold` — the paper's automated δ selection
  (Section 4.2): pick one δ for the whole sequence such that the total
  anomalous-node count equals ``l * (T - 1)`` for a user budget of
  ``l`` anomalies per transition on average. Implemented by bisection
  over the monotone step function δ -> total node count.
* :class:`OnlineThresholdSelector` — the paper's suggested online
  modification: aggregate scores seen so far and re-derive δ after
  every transition.

The bisection probes δ up to 200 times, so each transition is sorted
once into a private cut profile: its residual mass in score order and
the sorted position at which each endpoint first enters the cut. A
probe then counts ``|V_t|`` with two ``searchsorted`` calls instead of
a fresh sort. The online selector keeps one profile per transition it
has absorbed, so a push sorts only its own transition.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_finite_float, check_positive_int
from ..exceptions import ThresholdError
from ..observability import trace
from .results import TransitionScores


def _check_delta(delta: float) -> float:
    delta = check_finite_float(delta, "delta")
    if delta <= 0:
        raise ThresholdError(f"delta must be > 0, got {delta}")
    return delta


def _sorted_residual(scores: np.ndarray,
                     ) -> tuple[np.ndarray, float, np.ndarray]:
    """Descending score order, total mass, and ``residual`` where
    ``residual[k]`` is the mass left once the top ``k + 1`` edges are
    removed. ``scores`` must be non-empty."""
    order = np.argsort(-scores)
    # The residual after removing the top-k edges is accumulated from
    # the SMALLEST scores upward. Deriving it as `total - prefix`
    # (forward cumsum) cancels catastrophically on mixed-magnitude
    # scores: a true residual of ~1e-9 next to a ~1e8 total rounds to
    # exactly 0.0 several edges early, silently dropping positive
    # edges from the cut at small delta. The reverse accumulation
    # never subtracts, is exact at 0.0 once all positive scores are
    # removed, and stays monotone non-increasing, so the minimality
    # argument (first index whose residual falls below delta) holds.
    tail = np.cumsum(scores[order][::-1])
    residual = np.concatenate((tail[-2::-1], [0.0]))
    return order, float(tail[-1]), residual


def minimal_edge_set(edge_scores: np.ndarray, delta: float) -> np.ndarray:
    """Boolean mask of the minimal set ``E_t`` at level δ.

    ``E_t`` is the smallest set ``S`` (by cardinality) with
    ``sum_{e not in S} score(e) < delta``: take edges in descending
    score order until the remaining mass drops below δ. A total mass
    already below δ yields the empty set (no anomaly at this
    transition).

    Args:
        edge_scores: non-negative score vector.
        delta: dissimilarity level δ (must be > 0 for the optimisation
            to be satisfiable, since residual mass can reach exactly 0
            only after removing all positive scores).

    Returns:
        Boolean array marking the members of ``E_t``.
    """
    delta = _check_delta(delta)
    scores = np.asarray(edge_scores, dtype=np.float64)
    selected = np.zeros(scores.shape, dtype=bool)
    if scores.size == 0:
        return selected
    order, total, residual = _sorted_residual(scores)
    if total < delta:
        return selected
    # Smallest prefix whose removal brings the residual below delta.
    cutoff = int(np.argmax(residual < delta)) + 1
    selected[order[:cutoff]] = True
    return selected


class _CutProfile:
    """One transition sorted once, answering ``|V_t|`` at any δ.

    Algorithm 1 at level δ cuts the top ``cutoff`` edges in score
    order, so ``V_t`` is every endpoint whose first sorted position is
    below ``cutoff``. Holding the negated residual (ascending) and
    those first positions (sorted) makes each count two binary
    searches. A profile lives only as long as the selection call or
    online selector that built it; it is never cached on the scores.
    """

    __slots__ = ("mass", "smallest_positive", "_total", "_neg_residual",
                 "_first_positions")

    def __init__(self, scores: TransitionScores):
        # `top` in select_global_threshold is the pairwise sum; the
        # cumsum's last element can differ from it by one ULP.
        self.mass = scores.total_edge_score()
        edge_scores = np.asarray(scores.edge_scores, dtype=np.float64)
        positive = edge_scores[edge_scores > 0]
        self.smallest_positive = (
            float(positive.min()) if positive.size else None
        )
        self._total = 0.0
        self._neg_residual = self._first_positions = np.zeros(0)
        if edge_scores.size == 0:
            return
        order, self._total, residual = _sorted_residual(edge_scores)
        self._neg_residual = -residual
        size = edge_scores.size
        first = np.full(len(scores.universe), size, dtype=np.intp)
        positions = np.arange(size)
        np.minimum.at(first, scores.edge_rows[order], positions)
        np.minimum.at(first, scores.edge_cols[order], positions)
        self._first_positions = np.sort(first[first < size])

    def node_count(self, delta: float) -> int:
        """``|V_t|`` at level ``delta`` (> 0)."""
        if self._total < delta:
            return 0
        # First index whose residual falls below delta, plus one: the
        # same cutoff as `argmax(residual < delta) + 1`.
        cutoff = int(np.searchsorted(self._neg_residual, -delta,
                                     side="right")) + 1
        return int(np.searchsorted(self._first_positions, cutoff))


def node_count_at(scores: TransitionScores, delta: float) -> int:
    """``|V_t|`` that Algorithm 1 would output at level δ."""
    return _CutProfile(scores).node_count(_check_delta(delta))


def total_node_count(transitions: list[TransitionScores],
                     delta: float) -> int:
    """``sum_t |V_t|`` across a sequence at one shared level δ."""
    return sum(node_count_at(scores, delta) for scores in transitions)


def select_global_threshold(transitions: list[TransitionScores],
                            anomalies_per_transition: int,
                            max_bisection_steps: int = 200) -> float:
    """The paper's automated δ selection (Section 4.2).

    Chooses a single δ for all transitions such that the total number
    of anomalous nodes ``sum_t |V_t|`` is as close as possible to
    ``l * (T - 1)`` without falling below it, where ``l`` is the
    average anomaly budget per transition. Using one global δ (rather
    than per-transition top-l) lets calm transitions report nothing
    and turbulent ones report more than ``l`` — the behaviour Figure 7
    depends on.

    Args:
        transitions: scored transitions of the sequence (or the cut
            profiles of them that an online selector already holds).
        anomalies_per_transition: the paper's ``l`` (>= 1).
        max_bisection_steps: bisection iteration budget.

    Returns:
        The selected δ (> 0).

    Raises:
        ThresholdError: when every transition has zero score mass (no
            threshold can produce anomalies).
    """
    if not transitions:
        raise ThresholdError("no transitions to select a threshold for")
    budget = check_positive_int(
        anomalies_per_transition, "anomalies_per_transition"
    )
    target = budget * len(transitions)
    profiles = [
        item if isinstance(item, _CutProfile) else _CutProfile(item)
        for item in transitions
    ]
    top = max(profile.mass for profile in profiles)
    if top <= 0:
        raise ThresholdError(
            "all transitions have zero score mass; nothing to threshold"
        )

    # delta -> count is non-increasing: high delta tolerates all change
    # (no anomalies), delta -> 0 flags every scored edge.
    high = top * (1.0 + 1e-9)
    # The low probe must make every transition surrender all of its
    # positive edges. A mass-relative probe (`top * 1e-12`) fails that
    # on sequences whose score mass spans many orders of magnitude — a
    # transition with total mass below the probe reports nothing at it
    # — so anchor the bracket below the smallest positive edge score
    # instead: any delta <= that score selects every positive edge.
    smallest_positive = min(
        (
            profile.smallest_positive for profile in profiles
            if profile.smallest_positive is not None
        ),
        default=top,
    )
    low = 0.5 * smallest_positive
    if low <= 0.0:  # a denormal-tiny smallest score halved to zero
        low = float(np.finfo(np.float64).tiny)

    def count(delta: float) -> int:
        return sum(profile.node_count(delta) for profile in profiles)

    with trace("threshold.select", transitions=len(transitions),
               target=target):
        if count(high) >= target:
            return high
        if count(low) < target:
            return low  # budget larger than the available support
        for _step in range(max_bisection_steps):
            mid = 0.5 * (low + high)
            if count(mid) >= target:
                low = mid
            else:
                high = mid
            if high - low <= 1e-12 * top:
                break
    # `low` is the largest tested delta still meeting the budget.
    return low


class OnlineThresholdSelector:
    """Streaming δ selection: re-derive δ from the scores seen so far.

    The paper notes the offline global-δ procedure "can be suitably
    modified in an online setting by aggregating scores up to the
    current graph instance and updating the threshold". This class
    does exactly that: feed transitions one at a time; after each, the
    current δ targets ``l * (transitions so far)`` total anomalies.

    Args:
        anomalies_per_transition: the budget ``l``.
        warmup: number of transitions to absorb before emitting a δ
            (early estimates are noisy); the first ``warmup`` calls to
            :meth:`update` return ``None`` and ``current()`` stays
            ``None`` until the transition *after* the warmup window —
            with the default ``warmup=1`` the first transition is
            absorbed silently and the second produces the first δ.
    """

    def __init__(self, anomalies_per_transition: int, warmup: int = 1):
        self._l = check_positive_int(
            anomalies_per_transition, "anomalies_per_transition"
        )
        self._warmup = check_positive_int(warmup, "warmup")
        self._seen: list[_CutProfile] = []
        self._delta: float | None = None

    def update(self, scores: TransitionScores) -> float | None:
        """Absorb one transition's scores; return the refreshed δ.

        Returns ``None`` while still inside the warmup window: the
        first ``warmup`` transitions are absorbed without emitting
        (``len(seen) <= warmup``, not ``<`` — the historical off-by-one
        made ``warmup=1`` emit on the very first transition).
        """
        return self.extend([scores])

    def extend(self, transitions: list[TransitionScores]) -> float | None:
        """Absorb several transitions, then select δ once.

        Leaves the selector exactly as :meth:`update` on each in turn
        would: every selection depends only on the transitions absorbed
        so far, so only the last one survives. Restoring a stream's
        history this way costs one selection instead of one per
        transition.
        """
        self._seen.extend(_CutProfile(scores) for scores in transitions)
        if len(self._seen) <= self._warmup:
            return None
        if all(profile.mass <= 0 for profile in self._seen):
            return None
        self._delta = select_global_threshold(self._seen, self._l)
        return self._delta

    def current(self) -> float | None:
        """The most recent δ (``None`` until warmup completes)."""
        return self._delta


def anomaly_sets_at(scores: TransitionScores,
                    delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply Algorithm 1's cut at level δ to one transition.

    Returns:
        ``(edge_mask, node_indices, node_scores)`` where ``edge_mask``
        marks members of ``E_t`` on the scored support, ``node_indices``
        is ``V_t`` sorted by descending node score, and ``node_scores``
        are the ΔN values restricted to ``V_t`` in the same order.
    """
    mask = minimal_edge_set(scores.edge_scores, delta)
    if not mask.any():
        return mask, np.zeros(0, dtype=np.int64), np.zeros(0)
    members = np.union1d(scores.edge_rows[mask], scores.edge_cols[mask])
    member_scores = scores.node_scores[members]
    order = np.argsort(-member_scores)
    return mask, members[order].astype(np.int64), member_scores[order]
