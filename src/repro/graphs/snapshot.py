"""Graph snapshots: immutable weighted undirected graphs on a fixed node set.

The paper's model (Section 2) is a temporal sequence of weighted,
undirected graphs over one fixed vertex set ``V = {v_1 .. v_n}``. This
module provides the two building blocks of that model:

* :class:`NodeUniverse` — an ordered, immutable mapping between node
  labels and dense integer indices, shared by every snapshot of a
  dynamic graph so that adjacency matrices are directly comparable.
* :class:`GraphSnapshot` — one time slice ``G_t``: a symmetric,
  non-negative CSR adjacency matrix plus the universe it is indexed by.

Snapshots are value objects: all mutating work happens in builders
(:mod:`repro.graphs.builders`) and operations
(:mod:`repro.graphs.operations`) that return new snapshots.
"""

from __future__ import annotations

import hashlib
from collections.abc import Hashable, Iterable, Iterator
from typing import Any

import numpy as np
import scipy.sparse as sp

from .._validation import (
    check_non_negative_weights,
    check_square,
    check_symmetric,
)
from ..exceptions import GraphConstructionError, NodeUniverseMismatchError

NodeLabel = Hashable


class NodeUniverse:
    """An ordered, immutable set of node labels with index lookup.

    The universe fixes the meaning of row/column ``i`` across every
    snapshot of a dynamic graph. Labels may be any hashable values
    (strings, ints, tuples); their order of first appearance defines
    their integer index.

    Args:
        labels: unique node labels in index order.

    Raises:
        GraphConstructionError: on duplicate labels or an empty universe.
    """

    __slots__ = ("_labels", "_index")

    def __init__(self, labels: Iterable[NodeLabel]):
        labels = tuple(labels)
        if not labels:
            raise GraphConstructionError("node universe must not be empty")
        index = {label: i for i, label in enumerate(labels)}
        if len(index) != len(labels):
            raise GraphConstructionError("node labels must be unique")
        self._labels = labels
        self._index = index

    @classmethod
    def of_size(cls, n: int) -> "NodeUniverse":
        """Build a universe of ``n`` integer labels ``0 .. n-1``."""
        if n < 1:
            raise GraphConstructionError(f"universe size must be >= 1, got {n}")
        return cls(range(n))

    @property
    def labels(self) -> tuple[NodeLabel, ...]:
        """Node labels in index order."""
        return self._labels

    def index_of(self, label: NodeLabel) -> int:
        """Return the dense index of ``label``.

        Raises:
            KeyError: if the label is not in the universe.
        """
        return self._index[label]

    def label_of(self, index: int) -> NodeLabel:
        """Return the label at dense ``index``."""
        return self._labels[index]

    def indices_of(self, labels: Iterable[NodeLabel]) -> np.ndarray:
        """Vectorised :meth:`index_of` returning an int array."""
        return np.fromiter(
            (self._index[label] for label in labels), dtype=np.int64
        )

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __iter__(self) -> Iterator[NodeLabel]:
        return iter(self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeUniverse):
            return NotImplemented
        return self._labels == other._labels

    def __hash__(self) -> int:
        return hash(self._labels)

    def __repr__(self) -> str:
        preview = ", ".join(repr(label) for label in self._labels[:4])
        if len(self._labels) > 4:
            preview += ", ..."
        return f"NodeUniverse(n={len(self._labels)}, [{preview}])"


def _coerce_adjacency(adjacency: Any, n: int | None) -> sp.csr_matrix:
    """Validate and normalise an adjacency input into canonical CSR."""
    if sp.issparse(adjacency):
        matrix = adjacency.tocsr().astype(np.float64)
    else:
        dense = np.asarray(adjacency, dtype=np.float64)
        matrix = sp.csr_matrix(dense)
    check_square(matrix, "adjacency")
    if n is not None and matrix.shape[0] != n:
        raise GraphConstructionError(
            f"adjacency has {matrix.shape[0]} rows but the node universe "
            f"has {n} labels"
        )
    if matrix.nnz and not np.all(np.isfinite(matrix.data)):
        raise GraphConstructionError("adjacency must contain finite weights")
    check_symmetric(matrix, "adjacency")
    check_non_negative_weights(matrix, "adjacency")
    matrix.setdiag(0.0)  # self-loops carry no information for commute times
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return matrix


class GraphSnapshot:
    """One time slice of a dynamic graph: ``G_t = (V, A_t)``.

    The adjacency matrix is stored in canonical CSR form: symmetric,
    float64, zero diagonal, explicit zeros removed, indices sorted.
    Instances are treated as immutable; the adjacency property returns
    the internal matrix and callers must not modify it in place.

    Args:
        adjacency: square symmetric non-negative matrix (dense array or
            scipy sparse), absent edges encoded as zeros.
        universe: node universe. Defaults to integer labels ``0..n-1``.
        time: optional timestamp/label for this slice (month name, year,
            transition index...). Not interpreted by the library.
    """

    __slots__ = ("_adjacency", "_universe", "_time", "_digest")

    def __init__(self, adjacency: Any,
                 universe: NodeUniverse | None = None,
                 time: Any = None):
        matrix = _coerce_adjacency(
            adjacency, None if universe is None else len(universe)
        )
        if universe is None:
            universe = NodeUniverse.of_size(matrix.shape[0])
        self._adjacency = matrix
        self._universe = universe
        self._time = time
        self._digest: bytes | None = None

    @classmethod
    def _from_canonical(cls, matrix: sp.csr_matrix,
                        universe: NodeUniverse,
                        time: Any = None) -> "GraphSnapshot":
        """Trusted constructor: wrap an *already canonical* CSR matrix.

        Skips coercion and validation entirely, so the matrix is used
        as-is (it may alias shared or read-only memory). Only for
        matrices that came out of another snapshot — the parallel
        engine uses this to rebuild zero-copy snapshots from shared
        memory, and unpickling uses it to avoid re-validating.
        """
        snapshot = object.__new__(cls)
        snapshot._adjacency = matrix
        snapshot._universe = universe
        snapshot._time = time
        snapshot._digest = None
        return snapshot

    def __reduce__(self):
        # Snapshots are canonical by construction, so unpickling can
        # skip the O(m) coercion/validation pass (the pool round-trips
        # many snapshots; re-validating each one is pure overhead).
        return (
            GraphSnapshot._from_canonical,
            (self._adjacency, self._universe, self._time),
        )

    # -- structural accessors ------------------------------------------------

    @property
    def adjacency(self) -> sp.csr_matrix:
        """The canonical CSR adjacency matrix (do not mutate)."""
        return self._adjacency

    @property
    def universe(self) -> NodeUniverse:
        """The node universe indexing this snapshot."""
        return self._universe

    @property
    def time(self) -> Any:
        """The caller-supplied time label (may be ``None``)."""
        return self._time

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n`` (fixed across the dynamic graph)."""
        return self._adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges with non-zero weight."""
        return self._adjacency.nnz // 2

    # -- graph quantities ----------------------------------------------------

    def degrees(self) -> np.ndarray:
        """Weighted degree vector ``d(i) = sum_j A(i, j)``."""
        return np.asarray(self._adjacency.sum(axis=1)).ravel()

    def volume(self) -> float:
        """Graph volume ``V_G = sum_i d(i)`` (paper eq. 3)."""
        return float(self._adjacency.sum())

    def weight(self, u: NodeLabel, v: NodeLabel) -> float:
        """Edge weight between labels ``u`` and ``v`` (0 if absent)."""
        i = self._universe.index_of(u)
        j = self._universe.index_of(v)
        return float(self._adjacency[i, j])

    def neighbors(self, u: NodeLabel) -> list[NodeLabel]:
        """Labels adjacent to ``u`` (non-zero weight)."""
        i = self._universe.index_of(u)
        row = self._adjacency.indices[
            self._adjacency.indptr[i]:self._adjacency.indptr[i + 1]
        ]
        return [self._universe.label_of(j) for j in row]

    def edge_list(self) -> list[tuple[NodeLabel, NodeLabel, float]]:
        """Undirected edges as ``(u, v, weight)`` with index(u) < index(v)."""
        coo = sp.triu(self._adjacency, k=1).tocoo()
        label = self._universe.label_of
        return [
            (label(i), label(j), float(w))
            for i, j, w in zip(coo.row, coo.col, coo.data)
        ]

    def content_digest(self) -> bytes:
        """16-byte digest of the adjacency structure and weights.

        Two snapshots over equal-size universes have equal digests
        exactly when their canonical CSR matrices match entry for
        entry. The digest is stable across processes and platforms,
        which lets the commute-time backend caches key on content and
        lets checkpoints fingerprint their input.

        Memoized: snapshots are immutable, so the digest is computed at
        most once per instance (the backend cache and the factor cache
        both key on it, often several times per transition).
        """
        if self._digest is not None:
            return self._digest
        matrix = self._adjacency
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.int64(matrix.shape[0]).tobytes())
        digest.update(np.ascontiguousarray(matrix.indptr,
                                           dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(matrix.indices,
                                           dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(matrix.data,
                                           dtype=np.float64).tobytes())
        self._digest = digest.digest()
        return self._digest

    def density(self) -> float:
        """Fraction of possible undirected edges that are present."""
        n = self.num_nodes
        if n < 2:
            return 0.0
        return self.num_edges / (n * (n - 1) / 2)

    # -- derived snapshots ---------------------------------------------------

    def with_time(self, time: Any) -> "GraphSnapshot":
        """Copy of this snapshot carrying a different time label."""
        return GraphSnapshot(self._adjacency, self._universe, time)

    def require_same_universe(self, other: "GraphSnapshot") -> None:
        """Raise unless ``other`` shares this snapshot's universe.

        Raises:
            NodeUniverseMismatchError: on universes differing in labels
                or label order.
        """
        if self._universe != other._universe:
            raise NodeUniverseMismatchError(
                "snapshots are defined over different node universes "
                f"({len(self._universe)} vs {len(other._universe)} labels)"
            )

    def __repr__(self) -> str:
        time = f", time={self._time!r}" if self._time is not None else ""
        return (
            f"GraphSnapshot(n={self.num_nodes}, m={self.num_edges}{time})"
        )
