"""The Section 4.1 synthetic benchmark: Gaussian-mixture graphs.

Construction (following the paper):

1. draw ``n`` points from a 2-D Gaussian mixture with 4 components;
2. build the dense similarity graph ``P(i, j) = exp(-d(i, j))``
   (strong intra-cluster, weak inter-cluster weights);
3. perturb the points slightly and rebuild to get ``Q`` (benign
   temporal drift);
4. add sparse symmetric uniform noise entries;
5. the two-snapshot sequence is ``A_1 = P``, ``A_2 = Q + noise``.

Ground truth (paper): noise edges whose endpoints lie in *different*
mixture components — they create ties between distant clusters, the
anomalous structural change (Case 2) — plus the nodes incident to
them. Noise edges *within* a component hit tightly coupled pairs and
are structurally benign (the paper's non-anomalous Case 1-lookalikes).

Reproduction note (also recorded in DESIGN.md / EXPERIMENTS.md): the
paper draws noise uniformly over all n^2 entries at density 0.05,
under which essentially every node receives a cross-cluster noise
edge and node-level ROC is degenerate (all nodes positive). To obtain
a well-posed ROC that still exercises exactly the paper's
discrimination problem, this generator exposes *separate* densities
for intra-cluster (benign) and cross-cluster (anomalous) noise: both
share one uniform magnitude distribution, so adjacency change alone
(the ADJ baseline) cannot distinguish them, and only the minority of
cross-cluster entries is ground truth. Defaults are calibrated to
reproduce the paper's reported AUC ordering (CAD ~ 0.88, baselines
~ 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_rng, check_positive_int
from ..exceptions import DatasetError
from ..graphs.builders import gaussian_similarity_graph
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import GraphSnapshot, NodeUniverse

#: Component means of the 2-D mixture at the reference scale (n ~ 250).
#: Prefer :func:`default_means`, which scales the separation with n.
DEFAULT_MEANS = np.array([
    [0.0, 0.0],
    [8.0, 0.0],
    [0.0, 8.0],
    [8.0, 8.0],
])


def default_means(n: int) -> np.ndarray:
    """Component means whose separation keeps the benchmark scale-free.

    A single cross-cluster edge is structurally significant only while
    the *aggregate* inter-cluster similarity mass stays O(1): two
    clusters of ``n/4`` points at separation ``d`` share roughly
    ``(n/4)^2 * exp(-d)`` of background similarity, so the separation
    must grow like ``2 ln(n/4)`` for the paper's Case 2 regime to
    survive at larger n (at n = 2000 the paper's own scale, a fixed
    separation drowns every injected edge in background mass).
    """
    separation = max(6.0, 2.0 * np.log(max(n, 8) / 4.0))
    return np.array([
        [0.0, 0.0],
        [separation, 0.0],
        [0.0, separation],
        [separation, separation],
    ])


@dataclass(frozen=True)
class GaussianMixtureInstance:
    """One realisation of the synthetic benchmark with ground truth.

    Attributes:
        graph: two-snapshot dynamic graph ``[P, Q + noise]``.
        points: the ``(n, 2)`` mixture sample.
        components: per-node mixture component ids.
        anomalous_edge_rows / anomalous_edge_cols: endpoints (row <
            col) of the injected cross-cluster noise edges.
        benign_edge_rows / benign_edge_cols: endpoints of the injected
            intra-cluster (benign) noise edges.
        node_labels: boolean length-n array, True for nodes incident
            to at least one cross-cluster noise edge.
    """

    graph: DynamicGraph
    points: np.ndarray
    components: np.ndarray
    anomalous_edge_rows: np.ndarray
    anomalous_edge_cols: np.ndarray
    benign_edge_rows: np.ndarray
    benign_edge_cols: np.ndarray
    node_labels: np.ndarray

    @property
    def num_anomalous_nodes(self) -> int:
        """Number of ground-truth anomalous nodes."""
        return int(self.node_labels.sum())


def generate_gaussian_mixture_instance(
    n: int = 500,
    means: np.ndarray | None = None,
    component_std: float = 0.7,
    perturbation_std: float = 0.05,
    intra_noise_per_node: float = 3.0,
    cross_noise_edges: int = 20,
    noise_low: float = 0.3,
    noise_high: float = 1.0,
    seed=None,
) -> GaussianMixtureInstance:
    """Generate one benchmark realisation.

    Args:
        n: number of sample points / graph nodes (paper: 2000).
        means: ``(k, 2)`` component means (defaults to 4 separated
            corners).
        component_std: isotropic standard deviation of each component.
        perturbation_std: std of the benign point jitter producing Q.
        intra_noise_per_node: expected number of benign intra-cluster
            noise edges incident to each node.
        cross_noise_edges: number of anomalous cross-cluster noise
            edges injected (the ground-truth positives).
        noise_low / noise_high: uniform weight range shared by both
            noise kinds (identical magnitudes by design, so magnitude
            alone carries no label information).
        seed: int seed or numpy Generator.

    Returns:
        A fully labelled :class:`GaussianMixtureInstance`.
    """
    n = check_positive_int(n, "n")
    if means is None:
        means = default_means(n)
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or means.shape[1] != 2:
        raise DatasetError(f"means must be (k, 2), got {means.shape}")
    num_components = means.shape[0]
    if n < 2 * num_components:
        raise DatasetError(
            f"need at least {2 * num_components} samples, got {n}"
        )
    if not 0 <= noise_low < noise_high:
        raise DatasetError(
            f"need 0 <= noise_low < noise_high, got "
            f"({noise_low}, {noise_high})"
        )
    cross_noise_edges = check_positive_int(
        cross_noise_edges, "cross_noise_edges"
    )
    rng = as_rng(seed)

    components = rng.integers(0, num_components, size=n)
    points = means[components] + component_std * rng.standard_normal((n, 2))
    universe = NodeUniverse.of_size(n)

    first = gaussian_similarity_graph(points, universe, time=1)
    perturbed = points + perturbation_std * rng.standard_normal((n, 2))
    drifted = gaussian_similarity_graph(perturbed, universe)

    intra_rows, intra_cols = _sample_pairs(
        components, same_component=True,
        count=int(round(intra_noise_per_node * n / 2.0)), rng=rng,
    )
    cross_rows, cross_cols = _sample_pairs(
        components, same_component=False,
        count=cross_noise_edges, rng=rng,
    )
    noise = np.zeros((n, n))
    for rows, cols in ((intra_rows, intra_cols), (cross_rows, cross_cols)):
        values = rng.uniform(noise_low, noise_high, size=rows.size)
        noise[rows, cols] += values
        noise[cols, rows] += values
    second = GraphSnapshot(
        drifted.adjacency.toarray() + noise, universe, time=2
    )

    node_labels = np.zeros(n, dtype=bool)
    node_labels[cross_rows] = True
    node_labels[cross_cols] = True

    return GaussianMixtureInstance(
        graph=DynamicGraph([first, second]),
        points=points,
        components=components,
        anomalous_edge_rows=cross_rows,
        anomalous_edge_cols=cross_cols,
        benign_edge_rows=intra_rows,
        benign_edge_cols=intra_cols,
        node_labels=node_labels,
    )


def _sample_pairs(components: np.ndarray,
                  same_component: bool,
                  count: int,
                  rng: np.random.Generator,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` distinct node pairs (row < col) by cluster rule.

    Rejection sampling against the same/different-component predicate;
    duplicates are removed (so the realised count can fall slightly
    short at extreme densities, which is harmless for the benchmark).
    """
    n = components.size
    if count <= 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    chosen: set[tuple[int, int]] = set()
    budget = 50 * count + 100
    while len(chosen) < count and budget > 0:
        size = max(count - len(chosen), 16)
        rows = rng.integers(0, n, size=2 * size)
        cols = rng.integers(0, n, size=2 * size)
        budget -= 2 * size
        keep = rows != cols
        same = components[rows] == components[cols]
        keep &= same if same_component else ~same
        for i, j in zip(rows[keep], cols[keep]):
            pair = (int(min(i, j)), int(max(i, j)))
            chosen.add(pair)
            if len(chosen) >= count:
                break
    if not chosen:
        raise DatasetError(
            "could not sample any node pairs with the requested "
            "component rule — are all points in one component?"
        )
    rows = np.array([pair[0] for pair in sorted(chosen)], dtype=np.int64)
    cols = np.array([pair[1] for pair in sorted(chosen)], dtype=np.int64)
    return rows, cols
