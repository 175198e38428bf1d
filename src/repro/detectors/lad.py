"""LAD: Laplacian Anomaly/change-point Detection (Huang et al. 2020).

LAD (arXiv:2007.01229) summarises each snapshot by a low-rank
**Laplacian singular-value signature** — the ``rank`` leading singular
values of ``L_t = D_t - A_t``, normalised to unit norm — and scores the
transition into ``G_{t+1}`` against two sliding **context windows** of
past signatures:

* a *short-term* window capturing the recent regime, and
* a *long-term* window capturing the stable behaviour,

each summarised by its principal left singular vector (the "typical"
signature, exactly the ACT windowing idea lifted from activity vectors
to spectra). The raw transition score is::

    raw_t = max(1 - sigma_{t+1} . typical_short,
                1 - sigma_{t+1} . typical_long)

and the reported event score is ``raw_t`` robustly z-normalised
(median/MAD) against the raw scores seen so far, so a change stands
out relative to the sequence's own churn level.

The Laplacian is positive semi-definite, so its singular values equal
its eigenvalues; signatures are computed densely below
:data:`DENSE_SIGNATURE_LIMIT` nodes and via Lanczos (``eigsh`` with a
deterministic start vector) above it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_int
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import GraphSnapshot
from ..linalg.laplacian import laplacian
from ..linalg.eigen import principal_left_singular_vector
from ..observability import add_counter, trace
from ..core.detector import EVENT_SCORE_KEY, EventScoreDetector
from ..core.results import TransitionScores

#: Node count at/below which signatures use a dense eigendecomposition.
DENSE_SIGNATURE_LIMIT = 512

#: Raw-score history needed before z-normalisation kicks in.
MIN_CALIBRATION_HISTORY = 4

#: MAD -> standard-deviation consistency factor for normal data.
MAD_SCALE = 1.4826


def laplacian_signature(snapshot: GraphSnapshot,
                        rank: int) -> np.ndarray:
    """The snapshot's unit-norm truncated Laplacian spectrum.

    Returns the ``rank`` largest singular values of ``L = D - A`` in
    descending order, zero-padded when the graph has fewer than
    ``rank`` nodes and normalised to unit Euclidean norm (an edgeless
    snapshot keeps the all-zero signature).
    """
    n = snapshot.num_nodes
    count = min(rank, n)
    with trace("lad.signature", nodes=n, rank=count):
        if snapshot.num_edges == 0:
            values = np.zeros(count)
        elif n <= DENSE_SIGNATURE_LIMIT or count >= n - 1:
            lap = laplacian(snapshot.adjacency)
            if sp.issparse(lap):
                lap = lap.toarray()
            spectrum = np.linalg.eigvalsh(np.asarray(lap))
            values = spectrum[::-1][:count]
        else:
            from scipy.sparse.linalg import eigsh

            lap = sp.csr_matrix(laplacian(snapshot.adjacency))
            # Deterministic start vector: restored streams recompute
            # bit-for-bit identical signatures.
            values = np.sort(eigsh(
                lap, k=count, which="LM", v0=np.ones(n),
                return_eigenvectors=False,
            ))[::-1]
    add_counter("lad_signatures_total")
    signature = np.zeros(rank)
    signature[:count] = np.maximum(values, 0.0)
    norm = np.linalg.norm(signature)
    if norm > 0:
        signature = signature / norm
    return signature


def _typical_signature(window: list[np.ndarray]) -> np.ndarray:
    """The window's "typical" signature (principal left singular
    vector of the stacked signatures; zeros for an all-zero window)."""
    stacked = np.column_stack(window)
    if not np.any(stacked):
        return np.zeros(stacked.shape[0])
    return principal_left_singular_vector(stacked)


def _window_score(current: np.ndarray,
                  window: list[np.ndarray]) -> float:
    """``1 - sigma . typical`` against one context window, clamped to
    ``[0, 2]``; two spectrally empty sides score 0 (nothing changed)."""
    typical = _typical_signature(window)
    if not np.any(current) and not np.any(typical):
        return 0.0
    return float(max(1.0 - current @ typical, 0.0))


def robust_zscore(value: float, history: np.ndarray) -> float:
    """``value`` z-scored against ``history`` with median/MAD scale.

    Falls back to the standard deviation when the MAD degenerates and
    to a unit scale when both do, and clamps at zero (only *upward*
    deviations count as anomalies). With fewer than
    :data:`MIN_CALIBRATION_HISTORY` observations the raw value is
    returned unchanged.
    """
    if history.size < MIN_CALIBRATION_HISTORY:
        return max(float(value), 0.0)
    center = float(np.median(history))
    scale = MAD_SCALE * float(np.median(np.abs(history - center)))
    if scale <= 0:
        scale = float(history.std())
    if scale <= 0:
        scale = 1.0
    return max((float(value) - center) / scale, 0.0)


class LadDetector(EventScoreDetector):
    """Laplacian singular-value change detector (LAD).

    Stateful across a sequence like :class:`~repro.baselines.act.
    ActDetector`: the signature windows accumulate over transitions and
    :meth:`score_sequence` resets them. Node attribution uses the
    magnitude of each node's degree change (the Laplacian diagonal
    delta) — LAD itself is a transition-level method, so node scores
    exist for ranking comparability with the other detectors.

    Args:
        rank: signature length (leading singular values kept).
        short_window: short-term context window length (snapshots).
        long_window: long-term context window length; must be >= the
            short window.
        seed: accepted for registry uniformity; LAD is deterministic
            and ignores it.
    """

    name = "LAD"

    def __init__(self, rank: int = 8,
                 short_window: int = 3,
                 long_window: int = 10,
                 seed=None):
        self._rank = check_positive_int(rank, "rank")
        self._short = check_positive_int(short_window, "short_window")
        self._long = check_positive_int(long_window, "long_window")
        if self._long < self._short:
            self._long = self._short
        del seed  # deterministic; accepted for registry uniformity
        self._signatures: list[np.ndarray] = []
        self._raw_history: list[float] = []

    @property
    def rank(self) -> int:
        """Signature length (leading singular values kept)."""
        return self._rank

    def begin_sequence(self, graph: DynamicGraph) -> None:
        """Reset the signature windows and the score calibration."""
        self._signatures = []
        self._raw_history = []

    def score_transition(self, g_t: GraphSnapshot,
                         g_t1: GraphSnapshot) -> TransitionScores:
        """Score ``g_t -> g_t1`` against the context windows at ``t``.

        When called standalone (empty windows) the context is primed
        with ``g_t``'s signature, so a single transition degenerates to
        the plain spectral distance between the two snapshots.
        """
        g_t.require_same_universe(g_t1)
        if not self._signatures:
            self._signatures.append(laplacian_signature(g_t, self._rank))
        current = laplacian_signature(g_t1, self._rank)
        z_short = _window_score(current, self._signatures[-self._short:])
        z_long = _window_score(current, self._signatures[-self._long:])
        raw = max(z_short, z_long)
        event = robust_zscore(raw, np.asarray(self._raw_history))
        self._raw_history.append(raw)
        self._signatures.append(current)
        if len(self._signatures) > self._long:
            self._signatures = self._signatures[-self._long:]
        degree_delta = np.abs(g_t1.degrees() - g_t.degrees())
        return TransitionScores(
            universe=g_t.universe,
            edge_rows=np.zeros(0, dtype=np.int64),
            edge_cols=np.zeros(0, dtype=np.int64),
            edge_scores=np.zeros(0),
            node_scores=degree_delta,
            detector=self.name,
            extras={
                EVENT_SCORE_KEY: np.array([event]),
                "raw_score": np.array([raw]),
                "z_short": np.array([z_short]),
                "z_long": np.array([z_long]),
            },
        )

    def streaming_state(self) -> dict[str, np.ndarray]:
        """Signature windows and score calibration as plain arrays."""
        if self._signatures:
            signatures = np.stack(self._signatures)
        else:
            signatures = np.zeros((0, self._rank))
        return {
            "signatures": signatures,
            "raw_history": np.asarray(self._raw_history,
                                      dtype=np.float64),
        }

    def load_streaming_state(self,
                             state: dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`streaming_state`."""
        signatures = np.asarray(state["signatures"], dtype=np.float64)
        self._signatures = [row.copy() for row in signatures]
        self._raw_history = [
            float(value) for value in np.asarray(state["raw_history"])
        ]
