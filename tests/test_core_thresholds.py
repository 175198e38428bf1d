"""Unit tests for Algorithm 1's thresholding and δ selection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CadDetector,
    OnlineThresholdSelector,
    anomaly_sets_at,
    minimal_edge_set,
    node_count_at,
    select_global_threshold,
    total_node_count,
)
from repro.core.results import TransitionScores
from repro.core.thresholds import _CutProfile
from repro.exceptions import ThresholdError
from repro.graphs import NodeUniverse


def _scores(edge_scores, rows=None, cols=None, n=None):
    edge_scores = np.asarray(edge_scores, dtype=float)
    m = edge_scores.size
    if rows is None:
        rows = np.arange(m)
        cols = np.arange(m) + 1
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    if n is None:
        n = int(max(cols.max(initial=0), rows.max(initial=0))) + 1
    universe = NodeUniverse.of_size(max(n, 2))
    from repro.core import aggregate_node_scores

    return TransitionScores(
        universe=universe,
        edge_rows=rows,
        edge_cols=cols,
        edge_scores=edge_scores,
        node_scores=aggregate_node_scores(len(universe), rows, cols,
                                          edge_scores),
        detector="test",
    )


class TestMinimalEdgeSet:
    def test_residual_below_delta(self):
        scores = np.array([5.0, 3.0, 1.0, 0.5])
        mask = minimal_edge_set(scores, delta=2.0)
        # remove 5 -> residual 4.5; remove 3 -> 1.5 < 2 : stop
        assert mask.tolist() == [True, True, False, False]

    def test_total_below_delta_empty(self):
        mask = minimal_edge_set(np.array([0.5, 0.4]), delta=1.0)
        assert not mask.any()

    def test_total_equal_delta_selects(self):
        # residual must be strictly below delta; total == delta means
        # the constraint sum < delta is violated with S empty
        mask = minimal_edge_set(np.array([1.0]), delta=1.0)
        assert mask.tolist() == [True]

    def test_minimality(self):
        scores = np.array([4.0, 4.0, 4.0])
        mask = minimal_edge_set(scores, delta=5.0)
        assert mask.sum() == 2  # residual 4 < 5 after removing two

    def test_tiny_delta_selects_all_positive(self):
        scores = np.array([1.0, 2.0, 0.0])
        mask = minimal_edge_set(scores, delta=1e-15)
        assert mask.sum() == 2 or mask.sum() == 3

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ThresholdError):
            minimal_edge_set(np.array([1.0]), delta=0.0)

    def test_empty_scores(self):
        mask = minimal_edge_set(np.zeros(0), delta=1.0)
        assert mask.size == 0


class TestFloatDriftRegression:
    """Regression for the δ-cut float-drift bug.

    The historical implementation compared a ``np.sum`` total against a
    ``np.cumsum`` prefix. numpy's pairwise summation and cumsum's
    sequential summation round differently, so on mixed-magnitude score
    mass the residual ``total - prefix`` bottomed out at the drift —
    never below a δ smaller than it — and ``np.argmax`` of an all-False
    mask silently selected a single edge instead of (nearly) all of
    them.
    """

    def test_drifty_mass_still_meets_the_residual_contract(self):
        rng = np.random.default_rng(1)
        drifty_trials = 0
        for trial in range(10):
            scores = rng.random(200) * rng.choice(
                [1e-6, 1.0, 1e6], size=200
            )
            ordered = np.sort(scores)[::-1]
            drift = abs(float(np.sum(ordered))
                        - float(np.cumsum(ordered)[-1]))
            if drift == 0.0:
                continue
            drifty_trials += 1
            delta = drift / 2
            mask = minimal_edge_set(scores, delta=delta)
            # Algorithm 1's defining constraint: the unselected score
            # mass must fall strictly below delta. Pre-fix, the cut
            # degenerated to a single edge and left ~the whole mass.
            assert float(scores[~mask].sum()) < delta
            assert mask.sum() > 100
        # seed 1 produces drift on trials 0, 1 and 8; if numpy's
        # summation ever changes, this guard flags the test as inert.
        assert drifty_trials >= 2

    def test_residual_never_negative(self):
        # One consistent cumulative sum ends at exactly 0.0; the clamp
        # protects against tiny negative residuals re-ordering the cut.
        scores = np.array([1e6, 1.0, 1e-6] * 50)
        mask = minimal_edge_set(scores, delta=1e-9)
        assert float(scores[~mask].sum()) < 1e-9


class TestMinimalEdgeSetProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=1, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_smaller_delta_selects_superset(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.random(n) * rng.choice([1e-6, 1.0, 1e6], size=n)
        total = float(scores.sum())
        if total <= 0:
            return
        big = total * rng.uniform(0.05, 0.95)
        small = big * rng.uniform(0.01, 0.99)
        loose = minimal_edge_set(scores, delta=big)
        tight = minimal_edge_set(scores, delta=small)
        assert bool(np.all(tight[loose]))  # loose ⊆ tight

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=1, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_vanishing_delta_selects_every_positive_edge(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.random(n) * rng.choice([0.0, 1e-6, 1.0, 1e6],
                                            size=n)
        positive = scores > 0
        if not positive.any():
            return
        delta = float(scores[positive].min()) * 0.5
        if delta <= 0.0:
            delta = float(np.finfo(np.float64).tiny)
        mask = minimal_edge_set(scores, delta=delta)
        assert bool(np.all(mask[positive]))


class TestNodeCounts:
    def test_node_count_at(self):
        scores = _scores([5.0, 3.0, 1.0])
        # delta=2: edges (0,1) and (1,2) selected -> nodes {0,1,2}
        assert node_count_at(scores, 2.0) == 3

    def test_zero_when_delta_large(self):
        scores = _scores([5.0, 3.0])
        assert node_count_at(scores, 100.0) == 0

    def test_total_node_count(self):
        a = _scores([5.0])
        b = _scores([0.1])
        assert total_node_count([a, b], delta=1.0) == 2


class TestGlobalThresholdSelection:
    def test_hits_budget(self, small_dynamic_graph):
        detector = CadDetector(method="exact")
        scored = detector.score_sequence(small_dynamic_graph)
        delta = select_global_threshold(scored, 2)
        total = total_node_count(scored, delta)
        assert total >= 2  # one transition, budget l=2

    def test_monotone_in_budget(self):
        transitions = [_scores([9.0, 5.0, 2.0, 1.0, 0.5, 0.2])]
        small = select_global_threshold(transitions, 2)
        large = select_global_threshold(transitions, 4)
        assert large <= small

    def test_calm_transitions_stay_silent(self):
        """A single global delta lets calm transitions report nothing."""
        turbulent = _scores([50.0, 40.0, 30.0])
        calm = _scores([0.01, 0.005])
        delta = select_global_threshold([turbulent, calm], 2)
        assert node_count_at(calm, delta) == 0
        assert node_count_at(turbulent, delta) >= 2

    def test_all_zero_raises(self):
        with pytest.raises(ThresholdError):
            select_global_threshold([_scores([0.0, 0.0])], 1)

    def test_empty_list_raises(self):
        with pytest.raises(ThresholdError):
            select_global_threshold([], 1)

    def test_budget_above_support(self):
        scores = _scores([1.0])  # at most 2 nodes available
        delta = select_global_threshold([scores], 50)
        assert node_count_at(scores, delta) == 2

    def test_wide_magnitude_mass_meets_budget(self):
        """Bracket hardening: with score mass spanning 12 orders of
        magnitude, the bisection's low probe must still sit below any
        δ that meets the budget — the historical ``top * 1e-12`` probe
        could start *above* the δ the tiny-score transitions need."""
        rng = np.random.default_rng(7)
        transitions = []
        for exponent in (-6, -3, 0, 3, 6):
            magnitudes = rng.random(30) * 10.0 ** exponent
            rows = np.arange(30) * 2
            cols = rows + 1
            transitions.append(_scores(magnitudes, rows=rows, cols=cols))
        budget = 4
        delta = select_global_threshold(transitions, budget)
        total = total_node_count(transitions, delta)
        assert total >= budget * len(transitions)


class TestAnomalySetsAt:
    def test_nodes_sorted_by_score(self):
        scores = _scores([5.0, 3.0],
                         rows=np.array([0, 2]),
                         cols=np.array([1, 3]))
        _mask, nodes, node_scores = anomaly_sets_at(scores, 0.5)
        assert list(node_scores) == sorted(node_scores, reverse=True)
        assert set(nodes.tolist()) == {0, 1, 2, 3}

    def test_empty_when_quiet(self):
        scores = _scores([0.1])
        mask, nodes, node_scores = anomaly_sets_at(scores, 10.0)
        assert not mask.any()
        assert nodes.size == 0
        assert node_scores.size == 0


class TestOnlineSelector:
    def test_warmup_returns_none(self):
        selector = OnlineThresholdSelector(2, warmup=3)
        assert selector.update(_scores([5.0])) is None
        assert selector.current() is None

    def test_warmup_one_absorbs_first_transition(self):
        """warmup=1 must absorb one transition before emitting: the
        docstring's contract, which the historical off-by-one violated
        by emitting a δ on the very first update."""
        selector = OnlineThresholdSelector(1, warmup=1)
        assert selector.update(_scores([5.0, 1.0])) is None
        assert selector.current() is None
        delta = selector.update(_scores([4.0, 2.0]))
        assert delta is not None
        assert selector.current() == delta

    def test_warmup_two_absorbs_two_transitions(self):
        selector = OnlineThresholdSelector(1, warmup=2)
        assert selector.update(_scores([5.0, 1.0])) is None
        assert selector.update(_scores([4.0, 2.0])) is None
        assert selector.current() is None
        delta = selector.update(_scores([3.0, 3.0]))
        assert delta is not None
        assert selector.current() == delta

    def test_threshold_adapts(self):
        selector = OnlineThresholdSelector(1, warmup=1)
        selector.update(_scores([5.0, 1.0]))
        first = selector.update(_scores([6.0, 2.0]))
        second = selector.update(_scores([100.0, 50.0]))
        assert first is not None and second is not None
        assert second != first

    def test_all_zero_mass_returns_none(self):
        selector = OnlineThresholdSelector(1, warmup=1)
        assert selector.update(_scores([0.0])) is None
        assert selector.update(_scores([0.0])) is None


# -- cut profiles: one sort per transition, bit for bit with the cut -------

#: Ties, exact zeros and magnitudes from 1e-12 to 1e8.
_SCORE = st.one_of(
    st.just(0.0),
    st.sampled_from([0.25, 1.0, 3.0]),
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
              st.floats(min_value=1.0, max_value=9.99),
              st.integers(min_value=-12, max_value=7)),
)


@st.composite
def _transitions(draw, max_edges=24):
    """One transition whose edges share endpoints over a few nodes."""
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda pair: pair[0] != pair[1]),
        max_size=max_edges,
    ))
    values = draw(st.lists(_SCORE, min_size=len(pairs),
                           max_size=len(pairs)))
    rows = np.array([min(pair) for pair in pairs], dtype=np.int64)
    cols = np.array([max(pair) for pair in pairs], dtype=np.int64)
    return _scores(values, rows=rows, cols=cols, n=n)


def _reference_count(scores, delta):
    mask = minimal_edge_set(scores.edge_scores, delta)
    return int(np.union1d(scores.edge_rows[mask],
                          scores.edge_cols[mask]).size)


def _reference_delta(transitions, budget, steps=200):
    """The per-probe bisection that re-cuts every transition per probe."""
    target = budget * len(transitions)
    top = max(scores.total_edge_score() for scores in transitions)
    if top <= 0:
        raise ThresholdError("zero mass")
    high = top * (1.0 + 1e-9)
    low = 0.5 * min(
        (float(s.edge_scores[s.edge_scores > 0].min())
         for s in transitions if (s.edge_scores > 0).any()),
        default=top,
    )
    if low <= 0.0:
        low = float(np.finfo(np.float64).tiny)

    def count(delta):
        return sum(_reference_count(s, delta) for s in transitions)

    if count(high) >= target:
        return high
    if count(low) < target:
        return low
    for _step in range(steps):
        mid = 0.5 * (low + high)
        if count(mid) >= target:
            low = mid
        else:
            high = mid
        if high - low <= 1e-12 * top:
            break
    return low


class TestCutProfile:
    @given(_transitions(), st.floats(min_value=1e-13, max_value=1e9))
    @settings(max_examples=300, deadline=None)
    def test_count_matches_the_cut(self, scores, random_delta):
        """At every level where the cut can change — each positive
        residual, one ULP either side of it, the total — and at a
        random level, the profile counts the cut's endpoints."""
        tail = np.cumsum(np.sort(scores.edge_scores))
        residuals = tail[:-1][tail[:-1] > 0]
        deltas = [random_delta]
        for residual in residuals:
            deltas += [residual, np.nextafter(residual, 0.0),
                       np.nextafter(residual, np.inf)]
        if tail.size and tail[-1] > 0:
            deltas.append(tail[-1])
        profile = _CutProfile(scores)
        for delta in deltas:
            expected = _reference_count(scores, float(delta))
            assert profile.node_count(float(delta)) == expected
            assert node_count_at(scores, float(delta)) == expected

    @given(st.lists(_transitions(), min_size=1, max_size=6),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_delta_equals_the_per_probe_bisection(self, transitions,
                                                  budget):
        try:
            expected = _reference_delta(transitions, budget)
        except ThresholdError:
            with pytest.raises(ThresholdError):
                select_global_threshold(transitions, budget)
            return
        delta = select_global_threshold(transitions, budget)
        assert delta == expected and repr(delta) == repr(expected)

    @given(st.lists(_transitions(), min_size=1, max_size=6),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_online_delta_equals_the_reference(self, transitions, budget,
                                               warmup):
        selector = OnlineThresholdSelector(budget, warmup=warmup)
        for seen, scores in enumerate(transitions, start=1):
            delta = selector.update(scores)
            history = transitions[:seen]
            if seen <= warmup or all(
                    s.total_edge_score() <= 0 for s in history):
                assert delta is None
                continue
            expected = _reference_delta(history, budget)
            assert delta == expected and repr(delta) == repr(expected)
            assert selector.current() == expected

    def test_online_selector_sorts_each_transition_once(self,
                                                        monkeypatch):
        rng = np.random.default_rng(3)
        transitions = [_scores(rng.random(40) * 10.0 ** rng.integers(-3, 4),
                               rows=rng.integers(0, 10, 40),
                               cols=rng.integers(10, 20, 40))
                       for _ in range(30)]
        sorts = []
        argsort = np.argsort

        def counting_argsort(*args, **kwargs):
            sorts.append(1)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        selector = OnlineThresholdSelector(2, warmup=1)
        for scores in transitions:
            selector.update(scores)
        assert selector.current() is not None
        assert len(sorts) == 30

    def test_extend_selects_once_like_replayed_updates(self, monkeypatch):
        rng = np.random.default_rng(5)
        transitions = [_scores([0.0, 0.0])] + [
            _scores(rng.random(12) * 10.0 ** rng.integers(-2, 3))
            for _ in range(9)
        ]
        replayed = OnlineThresholdSelector(3, warmup=2)
        for scores in transitions:
            replayed.update(scores)
        calls = []

        def counting_select(*args, **kwargs):
            calls.append(1)
            return select_global_threshold(*args, **kwargs)

        monkeypatch.setattr("repro.core.thresholds.select_global_threshold",
                            counting_select)
        restored = OnlineThresholdSelector(3, warmup=2)
        assert restored.extend(transitions) == replayed.current()
        assert len(calls) == 1
        assert OnlineThresholdSelector(3, warmup=2).extend(
            transitions[:2]) is None
        assert OnlineThresholdSelector(1, warmup=1).extend(
            [_scores([0.0]), _scores([0.0])]) is None
