"""Content-addressed factorization reuse across snapshots and sessions.

CAD's dominant cost is the per-snapshot Laplacian solve — minutes
for one connected 5k-node exact snapshot (BENCH_streaming.json) even
though consecutive snapshots typically differ by a handful of edges and
identical snapshots are pushed repeatedly (checkpoint restores,
retried shards, several users watching one feed). This module removes
the redundancy at two tiers:

1. **Identity reuse** — a bounded, byte-budgeted LRU keyed by the
   snapshot's BLAKE2b :meth:`~repro.graphs.snapshot.GraphSnapshot.
   content_digest` plus the backend variant. A hit returns the cached
   backend object verbatim, so results are *bit-for-bit* identical to
   the cold solve that populated the entry. The cache is process-wide
   (:func:`shared_cache`), so streaming sessions, the HTTP service and
   per-process parallel workers all share one pool.
2. **Delta reuse** — when the exact backend misses but the calculator
   solved a *nearby* snapshot (small edge delta), the dense
   pseudoinverse is advanced with rank-one Woodbury/Sherman–Morrison
   updates (:func:`~repro.linalg.updates.rank_one_update`, and
   :func:`~repro.linalg.updates.rank_one_merge_update` for component
   merges) at O(q n^2) for q edited edges instead of the O(n^3)
   refactorization — the *Resistance Perturbation Distance* machinery.
   Past the delta budget, or on a component split, the caller falls
   back to a fresh factorization. Delta-updated entries agree with
   cold solves to ~1e-10 but not bit-for-bit, so they are tagged
   ``exactness="updated"`` and only ever served to calculators that
   opted into delta updates; strict consumers see only ``"cold"``
   entries.

Corrupted entries (wrong shape, non-finite values — e.g. a buggy
caller mutated a cached array in place) are detected at lookup time,
evicted, counted in ``factor_cache_corrupt_total``, and reported as a
miss so the caller cold-solves: the cache can only ever cost a
recompute, never wrong answers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..exceptions import SolverError
from ..graphs.operations import connected_components
from ..observability import add_counter, set_gauge, trace
from .updates import rank_one_merge_update, rank_one_update

#: Default cache byte budget (two 5k-node dense pseudoinverses).
DEFAULT_BUDGET_MB = 512

#: Default maximum number of edge edits absorbed by rank-one updates
#: before a transition falls back to a fresh factorization.
DEFAULT_DELTA_BUDGET = 64

#: Recognised ``factor_cache=`` configuration values (besides ``None``,
#: booleans, and a :class:`FactorCache` instance).
FACTOR_CACHE_MODES = ("shared", "private")


@dataclass
class CacheEntry:
    """One cached backend: the object plus its accounting metadata.

    Attributes:
        backend: dense pseudoinverse (exact) or embedding (approx).
        nbytes: charged size against the cache's byte budget.
        exactness: ``"cold"`` (bit-for-bit product of a fresh solve)
            or ``"updated"`` (rank-one-updated, ~1e-10 of cold).
        adjacency: the snapshot's CSR adjacency for exact entries, so
            delta updates can diff against it; ``None`` for approx.
    """

    backend: object
    nbytes: int
    exactness: str = "cold"
    adjacency: sp.csr_matrix | None = None
    hits: int = field(default=0, compare=False)


def _entry_is_valid(entry: CacheEntry) -> bool:
    """Cheap structural integrity check run on every lookup."""
    backend = entry.backend
    if isinstance(backend, np.ndarray):
        if backend.ndim != 2 or backend.shape[0] != backend.shape[1]:
            return False
        if not np.all(np.isfinite(backend.diagonal())):
            return False
        if entry.adjacency is not None and (
            entry.adjacency.shape[0] != backend.shape[0]
        ):
            return False
        return True
    points = getattr(backend, "points", None)
    if points is not None:
        return bool(np.all(np.isfinite(points[:1]))) if len(points) else True
    return hasattr(backend, "commute_times")


class FactorCache:
    """Bounded, thread-safe, content-addressed backend cache.

    Keys are opaque tuples whose first element is a snapshot content
    digest (see :meth:`CommuteTimeCalculator` for the exact layouts);
    the method/variant components of the key guarantee that an exact
    pseudoinverse is never served for an approx request and vice
    versa, whatever ``method_override`` is in force.

    Args:
        budget_mb: byte budget; least-recently-used entries are
            evicted once the total charged size exceeds it. Entries
            larger than the whole budget are simply not stored.
    """

    def __init__(self, budget_mb: float = DEFAULT_BUDGET_MB):
        if budget_mb <= 0:
            raise SolverError(
                f"cache budget must be positive, got {budget_mb} MB"
            )
        self._budget_bytes = int(budget_mb * 1024 * 1024)
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self._total_bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._corrupt = 0

    @property
    def budget_bytes(self) -> int:
        """The configured byte budget."""
        return self._budget_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple, *,
            allow_updated: bool = False) -> CacheEntry | None:
        """Look up an entry; ``None`` on miss/ineligible/corrupt.

        Args:
            key: content-addressed cache key.
            allow_updated: serve rank-one-updated (non-bit-for-bit)
                entries too; strict callers leave this off and only
                ever see backends produced by fresh solves.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and not _entry_is_valid(entry):
                self._corrupt += 1
                add_counter("factor_cache_corrupt_total")
                self._evict_entry(key)
                entry = None
            if entry is None or (
                entry.exactness != "cold" and not allow_updated
            ):
                self._misses += 1
                add_counter("factor_cache_misses_total")
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self._hits += 1
            add_counter("factor_cache_hits_total",
                        exactness=entry.exactness)
            return entry

    def put(self, key: tuple, backend: object, *,
            nbytes: int,
            exactness: str = "cold",
            adjacency: sp.csr_matrix | None = None) -> bool:
        """Insert a backend; returns whether it was stored.

        A ``"cold"`` entry never gets downgraded: storing an
        ``"updated"`` backend under a key that already holds a cold
        one is a no-op, so bit-for-bit consumers keep their entry.
        """
        if exactness not in ("cold", "updated"):
            raise SolverError(
                f"exactness must be 'cold' or 'updated', got {exactness!r}"
            )
        if nbytes > self._budget_bytes:
            add_counter("factor_cache_oversize_total")
            return False
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                if existing.exactness == "cold" and exactness == "updated":
                    return False
                self._evict_entry(key, count=False)
            self._entries[key] = CacheEntry(
                backend=backend, nbytes=int(nbytes),
                exactness=exactness, adjacency=adjacency,
            )
            self._total_bytes += int(nbytes)
            add_counter("factor_cache_stores_total", exactness=exactness)
            while self._total_bytes > self._budget_bytes:
                oldest = next(iter(self._entries))
                self._evict_entry(oldest)
            self._publish_gauges()
            return True

    def _evict_entry(self, key: tuple, count: bool = True) -> None:
        """Drop one entry (lock held by caller)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self._total_bytes -= entry.nbytes
        if count:
            self._evictions += 1
            add_counter("factor_cache_evictions_total")

    def _publish_gauges(self) -> None:
        set_gauge("factor_cache_entries", len(self._entries))
        set_gauge("factor_cache_bytes", self._total_bytes)

    def clear(self) -> None:
        """Drop every entry (tests and budget reconfiguration)."""
        with self._lock:
            self._entries.clear()
            self._total_bytes = 0
            self._publish_gauges()

    def stats(self) -> dict:
        """Plain-data counters for reports and the benchmark."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._total_bytes,
                "budget_bytes": self._budget_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "corrupt": self._corrupt,
            }


_shared_lock = threading.Lock()
_shared: FactorCache | None = None


def shared_cache(budget_mb: float | None = None) -> FactorCache:
    """The process-wide cache shared by sessions, service and workers.

    Created on first use. Passing ``budget_mb`` resizes the shared
    instance (shrinking evicts LRU entries immediately); omitting it
    keeps the current budget.
    """
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = FactorCache(
                budget_mb if budget_mb is not None else DEFAULT_BUDGET_MB
            )
        elif budget_mb is not None:
            new_budget = int(budget_mb * 1024 * 1024)
            if new_budget <= 0:
                raise SolverError(
                    f"cache budget must be positive, got {budget_mb} MB"
                )
            with _shared._lock:
                _shared._budget_bytes = new_budget
                while _shared._total_bytes > new_budget:
                    oldest = next(iter(_shared._entries))
                    _shared._evict_entry(oldest)
                _shared._publish_gauges()
        return _shared


def reset_shared_cache() -> None:
    """Forget the shared instance (test isolation)."""
    global _shared
    with _shared_lock:
        _shared = None


def resolve_factor_cache(value, budget_mb: float | None = None):
    """Normalise a ``factor_cache=`` argument into a cache (or None).

    Accepts ``None``/``False`` (disabled), ``True``/``"shared"`` (the
    process-wide :func:`shared_cache`), ``"private"`` (a fresh
    instance, e.g. for isolation tests), or a ready
    :class:`FactorCache`.

    Raises:
        SolverError: on any other value.
    """
    if value is None or value is False:
        return None
    if value is True or value == "shared":
        return shared_cache(budget_mb)
    if value == "private":
        return FactorCache(
            budget_mb if budget_mb is not None else DEFAULT_BUDGET_MB
        )
    if isinstance(value, FactorCache):
        return value
    raise SolverError(
        "factor_cache must be None, a boolean, 'shared', 'private' or "
        f"a FactorCache, got {value!r}"
    )


def updated_pseudoinverse(parent_adjacency: sp.csr_matrix,
                          parent_pseudoinverse: np.ndarray,
                          target_adjacency: sp.csr_matrix,
                          delta_budget: int = DEFAULT_DELTA_BUDGET,
                          ) -> tuple[np.ndarray | None, int]:
    """Advance a dense ``L^+`` from one snapshot to a nearby one.

    Diffs the two adjacencies and applies one rank-one update per
    edited undirected edge: Sherman–Morrison for within-component
    weight changes, Meyer's merge update for new cross-component
    edges. Returns ``(None, edits)`` when the transition is not
    delta-updatable — more edits than the budget, or an edit splits a
    component (near-singular denominator) — in which case the caller
    should factorize from scratch.

    Args:
        parent_adjacency: canonical CSR adjacency the pseudoinverse
            belongs to.
        parent_pseudoinverse: dense ``L^+`` of the parent (not
            mutated).
        target_adjacency: canonical CSR adjacency to advance to.
        delta_budget: maximum number of edge edits to absorb.

    Returns:
        ``(updated L^+ or None, number of edited edges)``.
    """
    if parent_adjacency.shape != target_adjacency.shape:
        return None, 0
    difference = (target_adjacency - parent_adjacency).tocoo()
    edits = [
        (int(i), int(j))
        for i, j, change in zip(difference.row, difference.col,
                                difference.data)
        if i < j and change != 0.0
    ]
    if not edits:
        return parent_pseudoinverse, 0
    if len(edits) > delta_budget:
        add_counter("factor_cache_delta_budget_exceeded_total")
        return None, len(edits)
    with trace("commute.delta_update", n=parent_adjacency.shape[0],
               edits=len(edits)):
        _count, labels = connected_components(parent_adjacency)
        labels = labels.copy()
        pseudoinverse = parent_pseudoinverse
        target = target_adjacency.tocsr()
        parent = parent_adjacency.tocsr()
        for i, j in edits:
            old_weight = float(parent[i, j])
            new_weight = float(target[i, j])
            delta = new_weight - old_weight
            if old_weight == 0.0 and labels[i] != labels[j]:
                pseudoinverse = rank_one_merge_update(
                    pseudoinverse, i, j, new_weight, labels
                )
                labels[labels == labels[j]] = labels[i]
                continue
            try:
                pseudoinverse = rank_one_update(
                    pseudoinverse, i, j, delta
                )
            except SolverError:
                # Component split: no cheap identity; caller refactors.
                add_counter("factor_cache_delta_splits_total")
                return None, len(edits)
        add_counter("factor_cache_delta_updates_total", len(edits))
    return pseudoinverse, len(edits)


def backend_nbytes(backend: object,
                   adjacency: sp.csr_matrix | None = None) -> int:
    """Charged size of a backend for the cache's byte budget."""
    total = 0
    if isinstance(backend, np.ndarray):
        total += backend.nbytes
    else:
        points = getattr(backend, "points", None)
        if points is not None:
            total += points.nbytes
        else:
            total += 1024  # unknown backend: token charge
    if adjacency is not None:
        total += (adjacency.data.nbytes + adjacency.indices.nbytes
                  + adjacency.indptr.nbytes)
    return int(total)
