"""Random graph generators for testing and scalability studies.

These produce the symmetric random graphs used by the paper's
scalability experiment (Section 4.1.3: random sparse graphs at a fixed
sparsity level) plus a couple of structured families (stochastic block
models, weighted community graphs) used throughout the test suite as
workloads with controllable cluster structure.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._validation import (
    as_rng,
    check_positive_float,
    check_positive_int,
    check_probability,
)
from ..exceptions import GraphConstructionError
from .snapshot import GraphSnapshot


def random_sparse_graph(n: int,
                        mean_degree: float = 2.0,
                        weight_low: float = 0.5,
                        weight_high: float = 1.5,
                        seed=None,
                        connected: bool = False) -> GraphSnapshot:
    """Symmetric random graph with ``~ n * mean_degree / 2`` edges.

    Edge endpoints are sampled uniformly; weights uniform in
    ``[weight_low, weight_high)``. With ``connected=True`` a random
    spanning-path backbone is added first so the graph is connected
    (needed whenever commute times must be finite everywhere).

    Args:
        n: number of nodes.
        mean_degree: target average (unweighted) degree.
        weight_low: minimum edge weight.
        weight_high: maximum edge weight.
        seed: int seed or numpy Generator.
        connected: add a random Hamiltonian-path backbone.
    """
    n = check_positive_int(n, "n")
    mean_degree = check_positive_float(mean_degree, "mean_degree")
    if weight_low < 0 or weight_high <= weight_low:
        raise GraphConstructionError(
            "need 0 <= weight_low < weight_high, got "
            f"({weight_low}, {weight_high})"
        )
    rng = as_rng(seed)

    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    if connected and n > 1:
        order = rng.permutation(n)
        rows_parts.append(order[:-1])
        cols_parts.append(order[1:])

    num_random = int(round(n * mean_degree / 2.0))
    if num_random:
        rows_parts.append(rng.integers(0, n, size=num_random))
        cols_parts.append(rng.integers(0, n, size=num_random))

    if rows_parts:
        rows = np.concatenate(rows_parts)
        cols = np.concatenate(cols_parts)
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
        weights = rng.uniform(weight_low, weight_high, size=rows.size)
        half = sp.coo_matrix((weights, (rows, cols)), shape=(n, n)).tocsr()
        adjacency = half.maximum(half.T)
    else:
        adjacency = sp.csr_matrix((n, n))
    return GraphSnapshot(adjacency)


def stochastic_block_model(sizes: list[int],
                           p_in: float,
                           p_out: float,
                           weight_in: float = 1.0,
                           weight_out: float = 1.0,
                           seed=None) -> GraphSnapshot:
    """Weighted stochastic block model.

    Args:
        sizes: community sizes; total node count is their sum.
        p_in: within-community edge probability.
        p_out: between-community edge probability.
        weight_in: weight of within-community edges.
        weight_out: weight of between-community edges.
        seed: int seed or numpy Generator.

    Returns:
        Snapshot whose universe is ``0..n-1`` with nodes ordered by
        community (community ``c`` occupies a contiguous index range).
    """
    if not sizes or any(size < 1 for size in sizes):
        raise GraphConstructionError(
            f"sizes must be positive integers, got {sizes}"
        )
    p_in = check_probability(p_in, "p_in")
    p_out = check_probability(p_out, "p_out")
    rng = as_rng(seed)
    n = int(sum(sizes))
    membership = np.repeat(np.arange(len(sizes)), sizes)

    upper = rng.random((n, n))
    same = membership[:, None] == membership[None, :]
    probability = np.where(same, p_in, p_out)
    weight = np.where(same, weight_in, weight_out)
    adjacency = np.where(upper < probability, weight, 0.0)
    adjacency = np.triu(adjacency, k=1)
    adjacency = adjacency + adjacency.T
    return GraphSnapshot(adjacency)


def community_pair_graph(community_size: int = 50,
                         p_in: float = 0.3,
                         p_out: float = 0.02,
                         seed=None) -> GraphSnapshot:
    """Convenience two-community SBM used widely in the test suite."""
    return stochastic_block_model(
        [community_size, community_size], p_in, p_out, seed=seed
    )


def perturb_weights(snapshot: GraphSnapshot,
                    relative_noise: float = 0.05,
                    seed=None) -> GraphSnapshot:
    """Multiplicatively jitter existing edge weights (support unchanged).

    Models the benign slice-to-slice drift of a dynamic graph: each
    weight ``w`` becomes ``w * (1 + eps)`` with
    ``eps ~ Uniform(-relative_noise, relative_noise)``, clipped at 0.
    """
    relative_noise = check_probability(relative_noise, "relative_noise")
    rng = as_rng(seed)
    upper = sp.triu(snapshot.adjacency, k=1).tocoo()
    factors = 1.0 + rng.uniform(-relative_noise, relative_noise,
                                size=upper.data.size)
    data = np.clip(upper.data * factors, 0.0, None)
    n = snapshot.num_nodes
    half = sp.coo_matrix((data, (upper.row, upper.col)), shape=(n, n))
    return GraphSnapshot(half + half.T, snapshot.universe, snapshot.time)


def random_symmetric_noise(n: int,
                           density: float,
                           low: float = 0.0,
                           high: float = 1.0,
                           seed=None) -> sp.csr_matrix:
    """Sparse symmetric noise matrix ``(R + R') / 2`` (paper Section 4.1).

    Each upper-triangular entry is non-zero with probability
    ``density``, drawn uniformly from ``[low, high)``; the matrix is
    then symmetrised. Returned as a raw CSR matrix (to be *added* to an
    adjacency, so it is not itself a snapshot).
    """
    n = check_positive_int(n, "n")
    density = check_probability(density, "density")
    rng = as_rng(seed)
    expected = density * n * (n - 1) / 2.0
    num_entries = rng.poisson(expected)
    if num_entries == 0:
        return sp.csr_matrix((n, n))
    rows = rng.integers(0, n, size=num_entries)
    cols = rng.integers(0, n, size=num_entries)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    # Deduplicate pairs before building the matrix: COO duplicate
    # summation would bias noise magnitudes upward.
    keys = lo.astype(np.int64) * n + hi
    _unique, first_positions = np.unique(keys, return_index=True)
    lo, hi = lo[first_positions], hi[first_positions]
    values = rng.uniform(low, high, size=lo.size)
    half = sp.coo_matrix((values, (lo, hi)), shape=(n, n)).tocsr()
    return (half + half.T).tocsr()
