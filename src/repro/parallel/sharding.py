"""Work decomposition for the parallel CAD engine.

One sharding axis (see ``docs/parallelism.md``): the sequence's
transitions ``G_t -> G_{t+1}`` are split into contiguous chunks, one
task per chunk. Each task reproduces the serial scoring path verbatim,
so the merged result is bit-for-bit identical to a serial run. Chunks
are contiguous on purpose: the commute-time backend cache holds the two
most recent snapshots, so a worker scoring ``t`` and then ``t+1``
reuses ``G_{t+1}``'s backend exactly like the serial loop does.

The exact backend already inverts each connected component on its own
(:func:`~repro.linalg.pseudoinverse.laplacian_pseudoinverse`), so a
disconnected graph needs no second axis. The ``shard_by`` knob is kept
for compatibility: every recognised value is accepted and selects the
transition axis.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ..exceptions import ParallelExecutionError

#: Recognised values of the ``shard_by`` knob.
SHARD_MODES = ("transition", "component", "auto")


def validate_shard_mode(shard_by: str) -> str:
    """Check a ``shard_by`` value, returning it unchanged."""
    if shard_by not in SHARD_MODES:
        raise ParallelExecutionError(
            f"shard_by must be one of {SHARD_MODES}, got {shard_by!r}"
        )
    return shard_by


def plan_transition_chunks(transitions: Sequence[int],
                           workers: int,
                           chunk_size: int | None = None,
                           ) -> list[tuple[int, ...]]:
    """Group transition indices into contiguous chunks, one task each.

    The default chunk size ``ceil(len(transitions) / workers)`` hands
    every worker one maximal contiguous run, which maximises
    backend-cache reuse inside each task; a smaller explicit
    ``chunk_size`` trades cache hits for better load balancing on
    heterogeneous transitions. ``transitions`` need not be contiguous
    (checkpoint resume scores only what is missing) — runs are split at
    every gap so a chunk never jumps across completed work.
    """
    ordered = sorted(int(t) for t in transitions)
    if not ordered:
        return []
    if chunk_size is None:
        chunk_size = math.ceil(len(ordered) / max(workers, 1))
    chunk_size = max(int(chunk_size), 1)
    runs: list[list[int]] = [[ordered[0]]]
    for transition in ordered[1:]:
        if transition == runs[-1][-1] + 1:
            runs[-1].append(transition)
        else:
            runs.append([transition])
    return [
        tuple(run[start:start + chunk_size])
        for run in runs
        for start in range(0, len(run), chunk_size)
    ]
