"""Enron-like organizational email network simulator (Section 4.2.1).

The paper's Enron experiment uses 151 employees over 48 monthly
snapshots (Dec 1998 – Nov 2002), with edge weights counting emails
exchanged. That data is unavailable offline, so this module simulates
an organizational email network with the same shape and — crucially —
scripted events mirroring the anecdotes the paper verifies against:

* a **trader burst** during the calm period (the "Chris Germany"
  anecdote): one trader suddenly contacts many other traders;
* an **incoming-CEO arrival** (the "Jeff Skilling" hire, Feb 2001);
* an **executive-assistant anomaly** just before the CEO change (the
  "Rosalie Fleming" anecdote, Dec 2000);
* the **key-player hub formation** (the "Kenneth Lay" anecdote,
  Jul→Aug 2001): the primary CEO abruptly starts emailing dozens of
  employees across all job roles — the event CAD must localize;
* a simultaneous **volume-only burst** (the "James Steffes" anecdote):
  a VP multiplies email volume to his *existing* contacts without new
  relationships — the event ACT top-ranks but CAD should not;
* an **acquisition working group** (the "David Delainey" / Dynegy
  anecdote, Oct→Nov 2001);
* **bankruptcy churn** (Nov 2001 – Feb 2002): legal specialists,
  presidents/VPs and traders forming and dropping ties.

Every event carries ground truth (actors, months, and whether the
change is *relational* — new/removed ties — or volume-only), so the
Figure 7/8 benchmarks can check CAD against a known timeline instead
of anecdote.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_rng, check_positive_int
from ..exceptions import DatasetError
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import GraphSnapshot, NodeUniverse

#: Month labels for the paper's Dec 1998 – Nov 2002 span.
def month_labels(start_year: int = 1998, start_month: int = 12,
                 count: int = 48) -> list[str]:
    """Generate ``count`` consecutive ``YYYY-MM`` labels."""
    labels = []
    year, month = start_year, start_month
    for _ in range(count):
        labels.append(f"{year:04d}-{month:02d}")
        month += 1
        if month > 12:
            month = 1
            year += 1
    return labels


@dataclass(frozen=True)
class ScriptedEvent:
    """One scripted organizational event with ground truth.

    Attributes:
        name: short event id.
        months: month indices (0-based) during which the event's extra
            communication is active.
        actors: node labels whose *relationships* the event changes.
        relational: True when the event creates/removes ties (CAD's
            target); False for pure volume changes on existing ties.
        description: one-line narrative.
    """

    name: str
    months: tuple[int, ...]
    actors: tuple[str, ...]
    relational: bool
    description: str

    def boundary_transitions(self) -> tuple[int, ...]:
        """Transitions where this event's edges appear or disappear.

        A transition index ``t`` covers the boundary between months
        ``t`` and ``t+1``. The event changes relationships at its
        start (month ``first``: transition ``first - 1``) and at its
        end (last active month ``last``: transition ``last``).
        """
        first, last = min(self.months), max(self.months)
        boundaries = []
        if first > 0:
            boundaries.append(first - 1)
        boundaries.append(last)
        return tuple(sorted(set(boundaries)))


@dataclass(frozen=True)
class EnronLikeData:
    """The simulated network plus its ground truth.

    Attributes:
        graph: 48-snapshot dynamic graph (time labels ``YYYY-MM``).
        events: scripted events in chronological order.
        roles: node label -> job role string.
        key_player: the hub-forming CEO node (Kenneth Lay analogue).
        volume_player: the volume-only VP node (James Steffes
            analogue).
        calm_transitions / turmoil_transitions: transition index
            ranges for the paper's calm and scandal phases.
    """

    graph: DynamicGraph
    events: tuple[ScriptedEvent, ...]
    roles: dict[str, str]
    key_player: str
    volume_player: str
    calm_transitions: tuple[int, ...]
    turmoil_transitions: tuple[int, ...]

    def relational_events(self) -> tuple[ScriptedEvent, ...]:
        """Events that change relationships (CAD ground truth)."""
        return tuple(e for e in self.events if e.relational)

    def ground_truth_transitions(self) -> set[int]:
        """Transitions at which some relational event starts or ends."""
        truth: set[int] = set()
        for event in self.relational_events():
            truth.update(event.boundary_transitions())
        return truth

    def active_event_transitions(self) -> set[int]:
        """Transitions overlapping any relational event's active span.

        Wider than :meth:`ground_truth_transitions`: sampling noise can
        legitimately surface relationship changes at mid-event
        transitions too (the paper's Figure 7 likewise shows runs of
        consecutive flagged transitions during the scandal).
        """
        active: set[int] = set()
        for event in self.relational_events():
            first, last = min(event.months), max(event.months)
            for transition in range(max(first - 1, 0), last + 1):
                active.add(transition)
        return active

    def ground_truth_actors(self, transition: int) -> set[str]:
        """Actors of relational events touching the given transition."""
        actors: set[str] = set()
        for event in self.relational_events():
            if transition in event.boundary_transitions():
                actors.update(event.actors)
        return actors


# -- role layout --------------------------------------------------------------

_ROLE_COUNTS = (
    ("president", 3),
    ("vice_president", 9),
    ("legal", 12),
    ("trader", 40),
    ("manager", 20),
    ("staff", 62),
)

KEY_PLAYER = "ceo_primary"
INCOMING_CEO = "ceo_incoming"
ASSISTANT = "assistant_exec"
VOLUME_PLAYER = "vp_government"
ENERGY_CEO = "ceo_energy"

_NAMED = (KEY_PLAYER, INCOMING_CEO, ASSISTANT, VOLUME_PLAYER, ENERGY_CEO)
_NAMED_ROLES = {
    KEY_PLAYER: "ceo",
    INCOMING_CEO: "ceo",
    ASSISTANT: "assistant",
    VOLUME_PLAYER: "vice_president",
    ENERGY_CEO: "ceo",
}


def _build_roster(num_employees: int) -> tuple[list[str], dict[str, str]]:
    """Node labels and their roles for a roster of the given size."""
    labels: list[str] = list(_NAMED)
    roles: dict[str, str] = dict(_NAMED_ROLES)
    for role, count in _ROLE_COUNTS:
        for index in range(1, count + 1):
            label = f"{role}_{index:02d}"
            labels.append(label)
            roles[label] = role
    if len(labels) > num_employees:
        # Trim from the tail (staff first) while keeping named actors.
        labels = labels[:num_employees]
        roles = {label: roles[label] for label in labels}
    while len(labels) < num_employees:
        label = f"staff_{len(labels):03d}"
        labels.append(label)
        roles[label] = "staff"
    return labels, roles


class EnronLikeSimulator:
    """Simulates the organizational email network described above.

    Args:
        num_employees: roster size (paper: 151).
        num_months: number of monthly snapshots (paper: 48).
        seed: int seed or numpy Generator.
        base_intra: baseline Poisson email rate within a department.
        base_inter: baseline rate across departments.
    """

    def __init__(self, num_employees: int = 151,
                 num_months: int = 48,
                 seed=None,
                 base_intra: float = 2.0,
                 base_inter: float = 0.02):
        self._n = check_positive_int(num_employees, "num_employees")
        if self._n < 120:
            raise DatasetError(
                "the scripted events need a roster of at least 120 "
                f"employees, got {self._n}"
            )
        self._num_months = check_positive_int(num_months, "num_months")
        if self._num_months < 40:
            raise DatasetError(
                "the scripted timeline needs at least 40 months, got "
                f"{self._num_months}"
            )
        self._rng = as_rng(seed)
        self._base_intra = base_intra
        self._base_inter = base_inter

    def generate(self) -> EnronLikeData:
        """Simulate the full sequence and return it with ground truth."""
        labels, roles = _build_roster(self._n)
        universe = NodeUniverse(labels)
        index = {label: i for i, label in enumerate(labels)}
        departments = self._assign_departments(labels, roles)
        base_rates = self._baseline_rates(labels, roles, departments)
        events = self._script_events(labels, roles)

        months = month_labels(count=self._num_months)
        snapshots = []
        for month in range(self._num_months):
            rates = base_rates.copy()
            self._apply_events(rates, events, month, index)
            seasonal = 1.0 + 0.1 * np.sin(2.0 * np.pi * month / 12.0)
            adjacency = self._sample_poisson(rates * seasonal)
            snapshots.append(
                GraphSnapshot(adjacency, universe, time=months[month])
            )
        graph = DynamicGraph(snapshots)

        turmoil = tuple(range(25, min(40, self._num_months - 1)))
        calm = tuple(
            t for t in range(self._num_months - 1) if t not in turmoil
        )
        return EnronLikeData(
            graph=graph,
            events=tuple(events),
            roles=roles,
            key_player=KEY_PLAYER,
            volume_player=VOLUME_PLAYER,
            calm_transitions=calm,
            turmoil_transitions=turmoil,
        )

    # -- structure ------------------------------------------------------------

    def _assign_departments(self, labels: list[str],
                            roles: dict[str, str]) -> np.ndarray:
        """Department ids: executives together, traders on two desks,
        legal its own; managers and staff spread across line depts."""
        departments = np.zeros(len(labels), dtype=np.int64)
        line_departments = (3, 4, 5, 6, 7)
        trader_count = 0
        spread = 0
        for i, label in enumerate(labels):
            role = roles[label]
            if role in ("ceo", "assistant", "president", "vice_president"):
                departments[i] = 0
            elif role == "legal":
                departments[i] = 1
            elif role == "trader":
                departments[i] = 2 if trader_count % 2 == 0 else 8
                trader_count += 1
            else:
                departments[i] = line_departments[
                    spread % len(line_departments)
                ]
                spread += 1
        return departments

    def _baseline_rates(self, labels: list[str],
                        roles: dict[str, str],
                        departments: np.ndarray) -> np.ndarray:
        """Symmetric baseline Poisson rate matrix with hierarchy."""
        n = len(labels)
        same = departments[:, None] == departments[None, :]
        rates = np.where(same, self._base_intra, self._base_inter)

        is_exec = np.array([
            roles[label] in ("ceo", "president", "vice_president")
            for label in labels
        ])
        is_manager = np.array(
            [roles[label] == "manager" for label in labels]
        )
        # Executives coordinate with managers across departments.
        exec_manager = np.outer(is_exec, is_manager)
        rates = np.where(exec_manager | exec_manager.T, 0.6, rates)
        # The assistant talks mostly to the primary CEO's office.
        assistant = labels.index(ASSISTANT)
        rates[assistant, :] *= 0.2
        rates[:, assistant] *= 0.2
        for exec_label in (KEY_PLAYER, INCOMING_CEO):
            j = labels.index(exec_label)
            rates[assistant, j] = rates[j, assistant] = 4.0

        # Fixed per-pair affinity so relationships persist over time.
        # The tail is clipped: without the cap, a handful of extreme
        # pairs flicker by several emails per month and their benign
        # variance drowns the scripted events (real interaction data is
        # closer to the capped regime because heavy pairs are stable).
        affinity = self._rng.lognormal(mean=-0.5, sigma=0.5, size=(n, n))
        affinity = np.clip(affinity, 0.0, 2.0)
        affinity = np.triu(affinity, k=1)
        affinity = affinity + affinity.T
        rates = rates * affinity
        np.fill_diagonal(rates, 0.0)
        return rates

    # -- events ---------------------------------------------------------------

    def _script_events(self, labels: list[str],
                       roles: dict[str, str]) -> list[ScriptedEvent]:
        """The scripted timeline (months are 0-based from Dec 1998)."""
        rng = self._rng
        by_role: dict[str, list[str]] = {}
        for label in labels:
            by_role.setdefault(roles[label], []).append(label)

        def pick(role: str, count: int, exclude: tuple[str, ...] = ()):
            pool = [who for who in by_role.get(role, [])
                    if who not in exclude]
            count = min(count, len(pool))
            return tuple(rng.choice(pool, size=count, replace=False))

        trader_star = by_role["trader"][0]
        events = [
            ScriptedEvent(
                name="trader_burst",
                months=(11,),
                actors=(trader_star,) + pick("trader", 14,
                                             exclude=(trader_star,)),
                relational=True,
                description=(
                    "a trader suddenly starts interacting with many "
                    "other traders (calm-period anomaly)"
                ),
            ),
            ScriptedEvent(
                name="assistant_anomaly",
                months=(24, 25),
                actors=(ASSISTANT,) + pick("legal", 4) + pick(
                    "vice_president", 3, exclude=(VOLUME_PLAYER,)),
                relational=True,
                description=(
                    "the executive assistant contacts legal and VPs "
                    "just before the CEO handover"
                ),
            ),
            ScriptedEvent(
                name="incoming_ceo",
                months=(26, 27),
                actors=(INCOMING_CEO,) + pick("president", 3)
                + pick("manager", 6),
                relational=True,
                description="the incoming CEO builds a new leadership "
                            "network on arrival",
            ),
            ScriptedEvent(
                name="key_player_hub",
                months=(32, 33, 34),
                actors=(KEY_PLAYER,) + pick("trader", 8) + pick("legal", 6)
                + pick("manager", 8) + pick("staff", 10)
                + pick("president", 2),
                relational=True,
                description=(
                    "the primary CEO abruptly emails dozens of employees "
                    "across all job roles (the hub-formation event CAD "
                    "must localize)"
                ),
            ),
            ScriptedEvent(
                name="volume_burst",
                months=(32, 33),
                actors=(VOLUME_PLAYER,),
                relational=False,
                description=(
                    "a VP multiplies email volume to existing contacts "
                    "only — no relationship change (ACT's false lead)"
                ),
            ),
            ScriptedEvent(
                name="acquisition_group",
                months=(35, 36),
                actors=(ENERGY_CEO,) + pick("president", 2)
                + pick("legal", 3),
                relational=True,
                description="an acquisition working group forms around "
                            "the energy-division CEO",
            ),
            ScriptedEvent(
                name="bankruptcy_churn",
                months=(37, 38, 39),
                actors=pick("legal", 6) + pick("president", 2)
                + pick("vice_president", 4, exclude=(VOLUME_PLAYER,))
                + pick("trader", 6),
                relational=True,
                description="legal, executives and traders rewire as "
                            "the bankruptcy unfolds",
            ),
        ]
        return events

    def _apply_events(self, rates: np.ndarray,
                      events: list[ScriptedEvent],
                      month: int,
                      index: dict[str, int]) -> None:
        """Overlay active events on this month's rate matrix in place."""
        for event in events:
            if month not in event.months:
                continue
            if event.name == "volume_burst":
                actor = index[event.actors[0]]
                # Amplify existing ties only: scale the actor's row.
                # The factor is strong enough that ACT's eigen-analysis
                # ranks this actor first; the actor's *relationships*
                # stay the same, so CAD attributes far fewer anomalous
                # edges to him than to the hub former.
                rates[actor, :] *= 8.0
                rates[:, actor] *= 8.0
                continue
            hub = index[event.actors[0]]
            others = [index[a] for a in event.actors[1:]]
            if event.name in ("key_player_hub", "trader_burst",
                              "assistant_anomaly", "incoming_ceo"):
                # Star pattern: the first actor contacts all others.
                rate = 6.0 if event.name == "key_player_hub" else 4.0
                for j in others:
                    rates[hub, j] = rates[j, hub] = max(
                        rates[hub, j], rate
                    )
            else:
                # Clique pattern: the whole group intercommunicates.
                members = [hub] + others
                for a in members:
                    for b in members:
                        if a < b:
                            rates[a, b] = rates[b, a] = max(
                                rates[a, b], 3.0
                            )

    def _sample_poisson(self, rates: np.ndarray) -> np.ndarray:
        """Sample a symmetric integer email-count matrix."""
        n = rates.shape[0]
        upper = np.triu(self._rng.poisson(rates), k=1).astype(np.float64)
        return upper + upper.T
