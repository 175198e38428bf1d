"""Incremental Laplacian pseudoinverse updates (rank-one edge edits).

Consecutive snapshots of a temporal graph typically differ in a small
number of edges, yet the exact CAD backend recomputes the O(n^3)
pseudoinverse from scratch per snapshot. A single edge-weight change
``w(i,j) += delta`` perturbs the Laplacian by the rank-one term
``delta * b b^T`` with ``b = e_i - e_j``, and — as long as the graph's
connected-component structure is unchanged, so the null space is the
same — the pseudoinverse obeys a Sherman–Morrison-style identity::

    (L + delta * b b^T)^+  =  L^+ - (delta / (1 + delta * b^T L^+ b)) *
                              (L^+ b)(L^+ b)^T

because ``b`` lies in the range of ``L`` (both endpoints in one
component) and the correction stays inside that range. Each update is
O(n^2), so a transition touching ``q`` edges costs O(q n^2) instead of
O(n^3) — a real win for the paper's sparse-change regime.

The identity *fails* when an edit changes the component structure
(the null space changes). The two directions are not symmetric:

* **Merges** — a new edge between two components — have a closed-form
  pseudoinverse update of their own (Meyer 1973, the ``b`` outside
  ``range(L)`` case): :func:`rank_one_merge_update` joins the two
  component blocks in O(n^2), so growing graphs never trigger a full
  recompute.
* **Splits** — removing the last path inside a component — are
  detected via the near-zero Sherman–Morrison denominator and still
  fall back to recomputation (the split case has no comparably simple
  update because the new null vector depends on the post-split
  component membership).

:func:`~repro.linalg.factorcache.updated_pseudoinverse` applies these
identities across a whole snapshot diff; it backs the delta tier of
:class:`~repro.core.commute.CommuteTimeCalculator`.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import SolverError

#: Denominators closer to zero than this trigger a full recompute
#: (the edit is changing the component structure).
_SINGULARITY_GUARD = 1e-10


def rank_one_update(pseudoinverse: np.ndarray,
                    i: int,
                    j: int,
                    delta: float) -> np.ndarray:
    """Pseudoinverse of ``L + delta * (e_i - e_j)(e_i - e_j)^T``.

    Args:
        pseudoinverse: current ``L^+`` (dense, symmetric).
        i, j: endpoints of the edited edge (distinct).
        delta: weight change (positive = strengthen, negative = weaken).

    Returns:
        The updated dense pseudoinverse (a new array).

    Raises:
        SolverError: if ``i == j``, or the update is singular — the
            edit removes the last path between two parts of a
            component (component split), where the rank-one identity
            does not apply.
    """
    if i == j:
        raise SolverError("edge endpoints must be distinct")
    if delta == 0.0:
        return pseudoinverse.copy()
    # L^+ b  for b = e_i - e_j reads two columns.
    lb = pseudoinverse[:, i] - pseudoinverse[:, j]
    denominator = 1.0 + delta * (lb[i] - lb[j])
    if abs(denominator) < _SINGULARITY_GUARD:
        raise SolverError(
            "singular rank-one update: the edit changes the graph's "
            "component structure; recompute the pseudoinverse instead"
        )
    return pseudoinverse - np.outer(lb, lb) * (delta / denominator)


def rank_one_merge_update(pseudoinverse: np.ndarray,
                          i: int,
                          j: int,
                          weight: float,
                          component_labels: np.ndarray) -> np.ndarray:
    """Pseudoinverse after a new edge *merges* two components.

    Adding ``weight * b b^T`` with ``b = e_i - e_j`` spanning two
    components changes the Laplacian's null space (the two constant
    indicator vectors collapse into one), so the Sherman–Morrison
    identity does not apply. Meyer's rank-one pseudoinverse update for
    the ``b`` outside ``range(L)`` case does: writing ``b_n`` for the
    projection of ``b`` onto the null space (``1_{C_i}/n_i -
    1_{C_j}/n_j`` for component sizes ``n_i``, ``n_j``) and ``beta = 1
    + weight * b^T L^+ b``::

        L_new^+ = L^+ - (L^+ b) b_n^T / ||b_n||^2
                      - b_n (L^+ b)^T / ||b_n||^2
                      + beta * b_n b_n^T / (weight * ||b_n||^4)

    which joins the two pseudoinverse blocks in O(n^2) — the identity
    the *Resistance Perturbation Distance* machinery builds on.

    Args:
        pseudoinverse: current ``L^+`` (dense, symmetric,
            block-diagonal across components).
        i, j: endpoints of the new edge, in different components.
        weight: the new edge weight (> 0).
        component_labels: per-node component ids of the *current*
            (pre-edge) graph.

    Returns:
        The updated dense pseudoinverse (a new array).

    Raises:
        SolverError: if the endpoints coincide, share a component, or
            the weight is not positive.
    """
    if i == j:
        raise SolverError("edge endpoints must be distinct")
    if weight <= 0.0:
        raise SolverError(
            f"a merging edge needs a positive weight, got {weight}"
        )
    labels = np.asarray(component_labels)
    if labels[i] == labels[j]:
        raise SolverError(
            "endpoints share a component; use rank_one_update instead"
        )
    in_i = labels == labels[i]
    in_j = labels == labels[j]
    size_i = int(in_i.sum())
    size_j = int(in_j.sum())
    b_null = np.zeros(pseudoinverse.shape[0])
    b_null[in_i] = 1.0 / size_i
    b_null[in_j] = -1.0 / size_j
    norm_sq = 1.0 / size_i + 1.0 / size_j
    lb = pseudoinverse[:, i] - pseudoinverse[:, j]
    beta = 1.0 + weight * (lb[i] - lb[j])
    updated = pseudoinverse - (
        np.outer(lb, b_null) + np.outer(b_null, lb)
    ) / norm_sq
    updated += np.outer(b_null, b_null) * (
        beta / (weight * norm_sq * norm_sq)
    )
    return updated
