"""DBLP-like co-authorship network simulator (Section 4.2.2).

The paper runs CAD on the yearly DBLP co-authorship graph (6,574
authors, 2005–2010; edge weight = papers co-authored that year) and
reports three anecdotes, which this simulator turns into ground truth
event archetypes:

* **cross-field switch** (the "Atanas Rountev → high-performance
  computing" anecdote): an author abruptly starts publishing heavily
  with several authors of a *distant* research field. CAD's strongest
  expected signal.
* **sub-field switch** (the "Salvatore Orlando → core databases"
  anecdote): an author moves to a *nearby* sub-field — the same
  archetype at lower structural severity, so its CAD score must come
  out *below* the cross-field switch (the paper calls this ordering
  out explicitly).
* **severed tie** (the "Brdiczka / Mühlhäuser" anecdote): a strong
  multi-year collaboration ends when one author departs for another
  community.

Collaboration model: each author holds a *persistent* set of regular
collaborators inside their sub-field (pairwise Poisson paper rates
that stay fixed across years — regular co-authors publish together
consistently), plus a small number of one-off papers per year within
the field. Fields are communities; sub-fields are halves of a field
bridged by a sparse set of cross-sub-field regular pairs, so a
sub-field hop crosses a smaller structural gap than a field hop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_rng, check_positive_int
from ..exceptions import DatasetError
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import GraphSnapshot, NodeUniverse


@dataclass(frozen=True)
class CollaborationEvent:
    """One injected collaboration-shift event.

    Attributes:
        name: archetype id (``cross_field_switch`` /
            ``sub_field_switch`` / ``severed_tie``).
        author: the moving author's label.
        partners: labels of the new (or, for severed ties, first the
            lost then the new) collaborators.
        transition: 0-based transition index at which the shift
            happens.
        expected_severity_rank: 1 = the event CAD should score highest
            among same-transition injected events.
    """

    name: str
    author: str
    partners: tuple[str, ...]
    transition: int
    expected_severity_rank: int


@dataclass(frozen=True)
class DblpLikeData:
    """The simulated co-authorship sequence plus ground truth.

    Attributes:
        graph: yearly dynamic graph (time labels are years).
        events: the injected collaboration events.
        fields: author label -> field id.
    """

    graph: DynamicGraph
    events: tuple[CollaborationEvent, ...]
    fields: dict[str, int]


class DblpLikeSimulator:
    """Simulates a community-structured yearly co-authorship network.

    Args:
        num_authors: roster size (paper: 6,574; default kept smaller
            so the exact commute backend stays fast).
        num_fields: number of research fields (communities).
        years: inclusive year range of the snapshots.
        regular_partners: average number of persistent collaborators
            per author.
        seed: int seed or numpy Generator.
    """

    def __init__(self, num_authors: int = 600,
                 num_fields: int = 6,
                 years: tuple[int, int] = (2005, 2010),
                 regular_partners: float = 4.0,
                 seed=None):
        self._n = check_positive_int(num_authors, "num_authors")
        self._num_fields = check_positive_int(num_fields, "num_fields")
        if self._n < 20 * self._num_fields:
            raise DatasetError(
                f"need >= {20 * self._num_fields} authors for "
                f"{self._num_fields} fields, got {self._n}"
            )
        if years[1] <= years[0]:
            raise DatasetError(f"invalid year range {years}")
        self._years = list(range(years[0], years[1] + 1))
        self._regular_partners = regular_partners
        self._rng = as_rng(seed)

    def generate(self) -> DblpLikeData:
        """Simulate the sequence and return it with ground truth."""
        rng = self._rng
        labels = [f"author_{i:04d}" for i in range(self._n)]
        universe = NodeUniverse(labels)
        fields = rng.integers(0, self._num_fields, size=self._n)
        subfields = rng.integers(0, 2, size=self._n)
        field_map = {labels[i]: int(fields[i]) for i in range(self._n)}

        pair_rates = self._regular_pair_rates(fields, subfields)
        events = self._script_events(labels, fields, subfields)
        event_rate_changes = self._event_rate_changes(events, universe)

        snapshots = []
        for year_index, year in enumerate(self._years):
            rates = pair_rates.copy()
            for (i, j), (start, rate) in event_rate_changes.items():
                active = (
                    year_index > start if rate > 0 else year_index <= start
                )
                if active:
                    rates[i, j] = rates[j, i] = abs(rate)
            adjacency = self._sample_counts(rates, rng)
            adjacency += self._one_off_papers(fields, rng)
            snapshots.append(GraphSnapshot(adjacency, universe, time=year))
        return DblpLikeData(
            graph=DynamicGraph(snapshots),
            events=tuple(events),
            fields=field_map,
        )

    # -- baseline collaboration ------------------------------------------------

    def _regular_pair_rates(self, fields: np.ndarray,
                            subfields: np.ndarray) -> np.ndarray:
        """Persistent pairwise paper rates (symmetric dense matrix)."""
        rng = self._rng
        n = self._n
        rates = np.zeros((n, n))
        for author in range(n):
            same_sub = (
                (fields == fields[author])
                & (subfields == subfields[author])
            )
            same_sub[author] = False
            pool = np.flatnonzero(same_sub)
            if pool.size == 0:
                continue
            count = min(pool.size, rng.poisson(self._regular_partners))
            if count == 0:
                continue
            partners = rng.choice(pool, size=count, replace=False)
            for partner in partners:
                if rates[author, partner] == 0.0:
                    rate = rng.lognormal(mean=0.3, sigma=0.4)
                    rates[author, partner] = rate
                    rates[partner, author] = rate
        # Sparse bridges between sub-fields of the same field.
        for f in range(self._num_fields):
            left = np.flatnonzero((fields == f) & (subfields == 0))
            right = np.flatnonzero((fields == f) & (subfields == 1))
            bridges = max(2, (left.size + right.size) // 20)
            for _ in range(bridges):
                if left.size == 0 or right.size == 0:
                    break
                i = int(rng.choice(left))
                j = int(rng.choice(right))
                rate = rng.lognormal(mean=0.0, sigma=0.3)
                rates[i, j] = rates[j, i] = rate
        return rates

    def _sample_counts(self, rates: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
        """Yearly paper counts: symmetric Poisson draw of the rates."""
        upper = np.triu(rng.poisson(rates), k=1).astype(np.float64)
        return upper + upper.T

    def _one_off_papers(self, fields: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
        """A sprinkle of single-paper pairs inside each field."""
        n = self._n
        extra = np.zeros((n, n))
        num_pairs = rng.poisson(n / 10.0)
        for _ in range(num_pairs):
            field = int(rng.integers(0, self._num_fields))
            pool = np.flatnonzero(fields == field)
            if pool.size < 2:
                continue
            i, j = rng.choice(pool, size=2, replace=False)
            extra[i, j] += 1.0
            extra[j, i] += 1.0
        return extra

    # -- events -----------------------------------------------------------------

    def _script_events(self, labels, fields, subfields,
                       ) -> list[CollaborationEvent]:
        """Pick actors and partners for the three archetypes."""
        rng = self._rng

        def pick_from(mask: np.ndarray, count: int) -> np.ndarray:
            pool = np.flatnonzero(mask)
            return rng.choice(pool, size=count, replace=False)

        # Cross-field switch: author from field 0 -> partners in field 1.
        mover = int(pick_from(fields == 0, 1)[0])
        far_partners = pick_from(fields == 1, 5)
        cross = CollaborationEvent(
            name="cross_field_switch",
            author=labels[mover],
            partners=tuple(labels[int(p)] for p in far_partners),
            transition=0,  # the 2005 -> 2006 transition, as in the paper
            expected_severity_rank=1,
        )

        # Sub-field switch: author from field 2 / sub 0 -> partners in
        # field 2 / sub 1 (nearby community, smaller structural hop).
        sub_mover = int(pick_from((fields == 2) & (subfields == 0), 1)[0])
        near_partners = pick_from((fields == 2) & (subfields == 1), 3)
        sub = CollaborationEvent(
            name="sub_field_switch",
            author=labels[sub_mover],
            partners=tuple(labels[int(p)] for p in near_partners),
            transition=0,
            expected_severity_rank=2,
        )

        # Severed tie: two field-3 authors with a strong standing
        # collaboration; it ends at the 2008 -> 2009 transition and the
        # mover starts publishing in field 4.
        pair = pick_from(fields == 3, 2)
        new_home = pick_from(fields == 4, 3)
        severed = CollaborationEvent(
            name="severed_tie",
            author=labels[int(pair[0])],
            partners=(labels[int(pair[1])],)
            + tuple(labels[int(p)] for p in new_home),
            transition=3,
            expected_severity_rank=1,
        )
        return [cross, sub, severed]

    def _event_rate_changes(self, events, universe,
                            ) -> dict[tuple[int, int], tuple[int, float]]:
        """Per-pair rate overrides: (i, j) -> (transition, signed rate).

        Positive rates switch *on* after the transition; negative rates
        encode ties that exist *up to* the transition and vanish after
        (the severed-tie archetype).
        """
        changes: dict[tuple[int, int], tuple[int, float]] = {}
        for event in events:
            author = universe.index_of(event.author)
            if event.name == "cross_field_switch":
                for partner in event.partners:
                    j = universe.index_of(partner)
                    changes[(author, j)] = (event.transition, 6.0)
            elif event.name == "sub_field_switch":
                for partner in event.partners:
                    j = universe.index_of(partner)
                    changes[(author, j)] = (event.transition, 4.0)
            elif event.name == "severed_tie":
                lost = universe.index_of(event.partners[0])
                changes[(author, lost)] = (event.transition, -7.0)
                for partner in event.partners[1:]:
                    j = universe.index_of(partner)
                    changes[(author, j)] = (event.transition, 4.0)
        return changes


def generate_dblp_instance(seed=None, **kwargs) -> DblpLikeData:
    """Build a default DBLP-like instance (thin convenience wrapper)."""
    return DblpLikeSimulator(seed=seed, **kwargs).generate()
