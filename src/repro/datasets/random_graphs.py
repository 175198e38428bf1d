"""Scalability workloads: random sparse graph transition pairs.

Section 4.1.3 times the five detectors on symmetric random graphs of
growing size at fixed sparsity (``m = O(n)``). This module produces
transition pairs — a random sparse graph plus a perturbed successor —
sized for that study.
"""

from __future__ import annotations

from dataclasses import dataclass

import scipy.sparse as sp

from .._validation import as_rng, check_positive_int
from ..graphs.dynamic import DynamicGraph
from ..graphs.generators import perturb_weights, random_sparse_graph
from ..graphs.snapshot import GraphSnapshot


@dataclass(frozen=True)
class ScalabilityInstance:
    """A two-snapshot random transition for runtime measurement.

    Attributes:
        graph: the dynamic graph (2 snapshots, shared universe).
        num_nodes: n.
        num_edges: mean edge count across the two snapshots.
    """

    graph: DynamicGraph
    num_nodes: int
    num_edges: float


def generate_scalability_instance(n: int,
                                  mean_degree: float = 2.0,
                                  churn_edges: int | None = None,
                                  seed=None) -> ScalabilityInstance:
    """Random sparse transition with both weight drift and edge churn.

    Args:
        n: node count (the paper sweeps up to 1e7; pure-Python scales
            to ~1e5–1e6 in reasonable wall-clock).
        mean_degree: average degree, default 2 (the paper's sparsity
            level of m = n).
        churn_edges: number of edges added at random in the second
            snapshot (defaults to ``max(1, n // 100)``).
        seed: int seed or numpy Generator.
    """
    n = check_positive_int(n, "n")
    rng = as_rng(seed)
    first = random_sparse_graph(
        n, mean_degree=mean_degree, seed=rng, connected=True
    )
    drifted = perturb_weights(first, relative_noise=0.1, seed=rng)
    if churn_edges is None:
        churn_edges = max(1, n // 100)
    rows = rng.integers(0, n, size=churn_edges)
    cols = rng.integers(0, n, size=churn_edges)
    keep = rows != cols
    weights = rng.uniform(0.5, 1.5, size=keep.sum())
    extra = sp.coo_matrix(
        (weights, (rows[keep], cols[keep])), shape=(n, n)
    ).tocsr()
    extra = extra.maximum(extra.T)
    second = GraphSnapshot(
        drifted.adjacency.maximum(extra), first.universe
    )
    graph = DynamicGraph([first, second])
    return ScalabilityInstance(
        graph=graph,
        num_nodes=n,
        num_edges=graph.mean_num_edges(),
    )
