"""Ingesting raw interaction records into dynamic graphs.

Real deployments start from event logs — (timestamp, source, target[,
weight]) records such as emails, co-authorships or transactions — not
from pre-built snapshot sequences. This module buckets such records
into fixed periods (the paper aggregates Enron monthly and DBLP
yearly) and builds a :class:`~repro.graphs.DynamicGraph` over the
union node universe, inserting *empty* snapshots for silent periods so
transition indices line up with calendar time.
"""

from __future__ import annotations

import datetime as dt
from collections.abc import Iterable, Sequence
from typing import Any, NamedTuple

import scipy.sparse as sp

from ..exceptions import GraphConstructionError
from .builders import snapshot_from_edges, universe_from_edges
from .dynamic import DynamicGraph
from .snapshot import GraphSnapshot, NodeLabel


class InteractionRecord(NamedTuple):
    """One raw interaction event.

    Attributes:
        when: a :class:`datetime.date`/``datetime`` or a sortable
            period key (int year, "YYYY-MM" string, ...).
        source: one endpoint label.
        target: other endpoint label.
        weight: interaction strength (defaults to 1 per record).
    """

    when: Any
    source: NodeLabel
    target: NodeLabel
    weight: float = 1.0


def month_of(when: dt.date | dt.datetime) -> str:
    """Canonical month key ``YYYY-MM`` of a date."""
    return f"{when.year:04d}-{when.month:02d}"


def year_of(when: dt.date | dt.datetime) -> int:
    """Calendar year of a date."""
    return when.year


def _default_period(freq: str):
    if freq == "month":
        return month_of
    if freq == "year":
        return year_of
    raise GraphConstructionError(
        f"freq must be 'month' or 'year', got {freq!r}"
    )


def _next_month(key: str) -> str:
    year, month = int(key[:4]), int(key[5:7])
    month += 1
    if month > 12:
        month = 1
        year += 1
    return f"{year:04d}-{month:02d}"


def aggregate_interactions(records: Iterable[InteractionRecord | tuple],
                           freq: str = "month",
                           fill_gaps: bool = True) -> DynamicGraph:
    """Bucket raw interaction records into a dynamic graph.

    Args:
        records: :class:`InteractionRecord` instances or plain tuples
            ``(when, source, target[, weight])``. ``when`` must be a
            date/datetime for ``freq`` bucketing.
        freq: ``"month"`` (keys ``YYYY-MM``) or ``"year"`` (int keys).
        fill_gaps: insert empty snapshots for periods with no records
            between the first and last observed period, so that each
            transition spans exactly one period.

    Returns:
        Dynamic graph with one snapshot per period, duplicate records
        per edge summed, time labels set to the period keys.

    Raises:
        GraphConstructionError: on no records or malformed rows.
    """
    period_of = _default_period(freq)
    per_period: dict[Any, list[tuple[NodeLabel, NodeLabel, float]]] = {}
    for record in records:
        if not isinstance(record, InteractionRecord):
            if len(record) == 3:
                record = InteractionRecord(*record, 1.0)
            elif len(record) == 4:
                record = InteractionRecord(*record)
            else:
                raise GraphConstructionError(
                    f"record must have 3 or 4 fields, got {record!r}"
                )
        key = period_of(record.when)
        per_period.setdefault(key, []).append(
            (record.source, record.target, float(record.weight))
        )
    if not per_period:
        raise GraphConstructionError("no interaction records supplied")

    keys = sorted(per_period)
    if fill_gaps:
        keys = _with_gaps_filled(keys, freq)
    universe = universe_from_edges(per_period.values())
    snapshots = []
    for key in keys:
        edges = per_period.get(key, [])
        if edges:
            snapshots.append(
                snapshot_from_edges(edges, universe, time=key)
            )
        else:
            empty = sp.csr_matrix((len(universe), len(universe)))
            snapshots.append(GraphSnapshot(empty, universe, time=key))
    return DynamicGraph(snapshots)


def _with_gaps_filled(keys: Sequence[Any], freq: str) -> list[Any]:
    """Complete the period-key range between first and last."""
    if freq == "year":
        return list(range(int(keys[0]), int(keys[-1]) + 1))
    filled = [keys[0]]
    while filled[-1] != keys[-1]:
        nxt = _next_month(filled[-1])
        filled.append(nxt)
        if len(filled) > 12_000:  # ~1000 years: malformed keys guard
            raise GraphConstructionError(
                f"month range {keys[0]}..{keys[-1]} does not terminate"
            )
    return filled


def sliding_windows(graph: DynamicGraph,
                    window: int,
                    stride: int = 1) -> list[DynamicGraph]:
    """Overlapping sub-sequences of a dynamic graph.

    Useful for batch re-analysis of long histories (e.g. running the
    offline δ selection per window rather than globally).

    Args:
        graph: the full sequence.
        window: snapshots per window (>= 2 to contain a transition).
        stride: start offset between consecutive windows.
    """
    if window < 2:
        raise GraphConstructionError(
            f"window must be >= 2 snapshots, got {window}"
        )
    if stride < 1:
        raise GraphConstructionError(f"stride must be >= 1, got {stride}")
    windows = []
    for start in range(0, len(graph) - window + 1, stride):
        windows.append(graph.subsequence(start, start + window))
    if not windows:
        raise GraphConstructionError(
            f"sequence of {len(graph)} snapshots is shorter than the "
            f"window ({window})"
        )
    return windows
