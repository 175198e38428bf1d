"""Workload inputs, generated from the benchmark seed before any timing.

Every generator is a pure function of its seed. The program receives
only what these functions return (for the HTTP workload, already
JSON-encoded request bodies); the ground truth stays with the
benchmark for the accuracy metric.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

import repro
from repro.graphs import DynamicGraph, GraphSnapshot, random_sparse_graph
from repro.pipeline.serialize import snapshot_to_payload

#: §4.1 Gaussian mixture at the largest size a run can repeat.
GM_NODES = 1000
#: §4.1.3 random sparse transition; ``auto`` resolves to the embedding.
SPARSE_NODES = 30_000
#: §4.3 scale: 151 employees over 48 months.
ENRON_EMPLOYEES = 151
ENRON_MONTHS = 48
#: The drifting stream sharded across cluster workers.
DRIFT_NODES = 5000
DRIFT_SNAPSHOTS = 16
#: Random edges per node before the spanning backbone doubles it to a
#: mean degree of about 4.
DRIFT_RANDOM_DEGREE = 2.0
#: Share of edges re-weighted per step, and edges planted per step.
DRIFT_EDIT_SHARE = 0.01
DRIFT_PLANTED = 2


def child_seed(seed: int, *path: int) -> int:
    """A 63-bit seed derived from the workload seed and a path."""
    state = np.random.SeedSequence([seed, *path]).generate_state(2,
                                                                 np.uint64)
    return int(state[0] >> np.uint64(1))


def graph_digest(graph: DynamicGraph) -> str:
    """Digest of every snapshot's content, in order."""
    digest = hashlib.blake2b(digest_size=16)
    for snapshot in graph:
        digest.update(snapshot.content_digest())
    return digest.hexdigest()


@dataclass
class BatchInput:
    graph: DynamicGraph
    #: ``(transition, node)`` boolean ground truth for the node AUC.
    labels: np.ndarray
    digest: str


def gaussian_mixture(seed: int, n: int = GM_NODES) -> BatchInput:
    """Two snapshots of a complete Gaussian-kernel graph with planted
    cross-cluster edges (the paper's §4.1 benchmark)."""
    instance = repro.generate_gaussian_mixture_instance(
        n=n, seed=child_seed(seed, 1)
    )
    labels = instance.node_labels[None, :].copy()
    return BatchInput(instance.graph, labels, graph_digest(instance.graph))


def _new_edge_endpoints(before: sp.spmatrix, after: sp.spmatrix,
                        n: int) -> np.ndarray:
    added = ((after != 0).astype(np.int8)
             - (before != 0).astype(np.int8)).tocoo()
    mask = np.zeros(n, dtype=bool)
    rows = added.row[added.data > 0]
    cols = added.col[added.data > 0]
    mask[rows] = True
    mask[cols] = True
    return mask


def sparse_transition(seed: int, n: int = SPARSE_NODES) -> BatchInput:
    """The §4.1.3 random sparse transition: 10% weight drift on every
    edge plus 1% new edges, whose endpoints are the ground truth."""
    instance = repro.generate_scalability_instance(
        n, seed=child_seed(seed, 2)
    )
    graph = instance.graph
    labels = _new_edge_endpoints(graph[0].adjacency, graph[1].adjacency,
                                 n)[None, :]
    return BatchInput(graph, labels, graph_digest(graph))


def drift_stream(seed: int, n: int = DRIFT_NODES,
                 snapshots: int = DRIFT_SNAPSHOTS) -> BatchInput:
    """A sparse graph streamed over ``snapshots`` snapshots.

    Each step re-weights about 1% of the edges by up to ±20% and plants
    ``DRIFT_PLANTED`` new edges between random nodes; the planted
    edges' endpoints are that transition's ground truth. Few pairs
    change per transition.
    """
    rng = np.random.default_rng(child_seed(seed, 3))
    base = random_sparse_graph(n, mean_degree=DRIFT_RANDOM_DEGREE,
                               seed=rng, connected=True)
    upper = sp.triu(base.adjacency, k=1).tocoo()
    rows, cols, weights = upper.row, upper.col, upper.data
    stream = [GraphSnapshot(base.adjacency, base.universe, time=0)]
    labels = np.zeros((snapshots - 1, n), dtype=bool)
    for step in range(1, snapshots):
        weights = weights.copy()
        edited = rng.choice(weights.size,
                            size=int(DRIFT_EDIT_SHARE * weights.size),
                            replace=False)
        weights[edited] *= rng.uniform(0.8, 1.2, size=edited.size)
        ends = rng.choice(n, size=(DRIFT_PLANTED, 2), replace=True)
        ends = ends[ends[:, 0] != ends[:, 1]]
        low, high = ends.min(axis=1), ends.max(axis=1)
        rows = np.concatenate([rows, low])
        cols = np.concatenate([cols, high])
        weights = np.concatenate(
            [weights, rng.uniform(0.5, 1.5, size=low.size)]
        )
        labels[step - 1, low] = True
        labels[step - 1, high] = True
        half = sp.coo_matrix((weights, (rows, cols)), shape=(n, n)).tocsr()
        stream.append(GraphSnapshot(half + half.T, base.universe,
                                    time=step))
    graph = DynamicGraph(stream)
    return BatchInput(graph, labels, graph_digest(graph))


@dataclass
class Session:
    graph: DynamicGraph
    #: JSON request bodies, one per snapshot, encoded before timing.
    bodies: list[bytes]
    labels: np.ndarray


def enron_sessions(seed: int, count: int) -> list[Session]:
    """``count`` Enron-like sequences, each from a fresh simulator seed.

    The node-AUC ground truth marks, at every transition where a
    relational event starts or ends, that event's actors.
    """
    sessions = []
    for index in range(count):
        data = repro.EnronLikeSimulator(
            num_employees=ENRON_EMPLOYEES, num_months=ENRON_MONTHS,
            seed=child_seed(seed, 4, index),
        ).generate()
        universe = data.graph.universe
        labels = np.zeros((data.graph.num_transitions, len(universe)),
                          dtype=bool)
        for transition in data.ground_truth_transitions():
            for actor in data.ground_truth_actors(transition):
                labels[transition, universe.index_of(actor)] = True
        bodies = [json.dumps(snapshot_to_payload(snapshot)).encode()
                  for snapshot in data.graph]
        sessions.append(Session(data.graph, bodies, labels))
    return sessions


def sessions_digest(sessions: list[Session]) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for session in sessions:
        for body in session.bodies:
            digest.update(body)
    return digest.hexdigest()
