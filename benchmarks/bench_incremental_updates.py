"""Extension bench: rank-one pseudoinverse updates vs per-snapshot recompute.

Temporal transitions usually touch few edges; the rank-one
Sherman–Morrison update advances ``L^+`` at O(n^2) per edit instead
of O(n^3) per snapshot. This bench times
:func:`~repro.linalg.updated_pseudoinverse` — the commute calculator's
delta tier, which ``incremental=True`` streams run with no edit
budget — against a fresh recompute on an Enron-scale graph and
verifies exactness.
"""

import numpy as np
import pytest

from repro.evaluation import time_callable
from repro.graphs import random_sparse_graph
from repro.linalg import laplacian_pseudoinverse, updated_pseudoinverse
from repro.pipeline import render_table

N = 400
EDIT_COUNTS = (1, 4, 16, 64)


@pytest.fixture(scope="module")
def graph():
    return random_sparse_graph(N, mean_degree=6.0, seed=11,
                               connected=True)


def test_incremental_vs_recompute(benchmark, graph, emit):
    rng = np.random.default_rng(5)

    def edited(count):
        """``graph`` with ``count`` random edge weights set."""
        adjacency = graph.adjacency.tolil()
        for _ in range(count):
            i, j = rng.integers(0, N, size=2)
            while i == j:
                i, j = rng.integers(0, N, size=2)
            adjacency[i, j] = adjacency[j, i] = float(rng.uniform(0.2, 2.0))
        return adjacency.tocsr()

    pseudoinverse = laplacian_pseudoinverse(graph.adjacency)
    recompute_time = time_callable(
        "recompute",
        lambda: laplacian_pseudoinverse(graph.adjacency),
        repeats=3,
    ).best

    single = edited(1)
    benchmark.pedantic(
        lambda: updated_pseudoinverse(graph.adjacency, pseudoinverse,
                                      single),
        rounds=1, iterations=1,
    )

    rows = []
    for count in EDIT_COUNTS:
        target = edited(count)
        updated = []
        incremental_time = time_callable(
            f"incremental-{count}",
            lambda t=target, out=updated: out.append(updated_pseudoinverse(
                graph.adjacency, pseudoinverse, t, delta_budget=count,
            )[0]),
            repeats=1,
        ).best
        # exactness check against a fresh recompute
        expected = laplacian_pseudoinverse(target)
        error = float(np.max(np.abs(updated[0] - expected)))
        rows.append((count, incremental_time, recompute_time, error))
    emit("incremental_updates", render_table(
        ("edits", "incremental (s)", "full recompute (s)", "max |err|"),
        rows,
        title=f"Rank-one L+ updates vs recompute (n={N})",
        float_format="{:.3g}",
    ))

    # a single edit must be much cheaper than recomputing
    assert rows[0][1] < recompute_time
    # and the updated pseudoinverse stays numerically exact
    assert max(row[3] for row in rows) < 1e-6
