"""Tests for the DBLP-like and precipitation simulators."""

import numpy as np
import pytest

from repro.datasets import (
    DblpLikeSimulator,
    PrecipitationSimulator,
    generate_dblp_instance,
)
from repro.datasets.precipitation import EVENT_SHIFTS, REGIONS
from repro.exceptions import DatasetError


@pytest.fixture(scope="module")
def dblp():
    return generate_dblp_instance(seed=7, num_authors=300, num_fields=5)


class TestDblpGeneration:
    def test_dimensions(self, dblp):
        assert dblp.graph.num_nodes == 300
        assert len(dblp.graph) == 6  # 2005..2010

    def test_years_as_times(self, dblp):
        assert dblp.graph[0].time == 2005
        assert dblp.graph[5].time == 2010

    def test_three_events(self, dblp):
        names = {event.name for event in dblp.events}
        assert names == {
            "cross_field_switch", "sub_field_switch", "severed_tie",
        }

    def test_event_edges_present_after_transition(self, dblp):
        cross = next(e for e in dblp.events
                     if e.name == "cross_field_switch")
        before = dblp.graph[cross.transition]
        after = dblp.graph[cross.transition + 1]
        partner = cross.partners[0]
        assert before.weight(cross.author, partner) == 0.0
        assert after.weight(cross.author, partner) > 0.0

    def test_severed_tie_disappears(self, dblp):
        severed = next(e for e in dblp.events if e.name == "severed_tie")
        lost = severed.partners[0]
        before = dblp.graph[severed.transition]
        after = dblp.graph[severed.transition + 1]
        assert before.weight(severed.author, lost) > 0.0
        assert after.weight(severed.author, lost) == 0.0

    def test_cross_field_partners_in_other_field(self, dblp):
        cross = next(e for e in dblp.events
                     if e.name == "cross_field_switch")
        author_field = dblp.fields[cross.author]
        for partner in cross.partners:
            assert dblp.fields[partner] != author_field

    def test_deterministic(self):
        a = generate_dblp_instance(seed=3, num_authors=150)
        b = generate_dblp_instance(seed=3, num_authors=150)
        diff = a.graph[2].adjacency - b.graph[2].adjacency
        assert abs(diff).max() == 0.0

    def test_rejects_too_few_authors(self):
        with pytest.raises(DatasetError):
            DblpLikeSimulator(num_authors=50, num_fields=6)

    def test_rejects_bad_years(self):
        with pytest.raises(DatasetError):
            DblpLikeSimulator(num_authors=300, years=(2010, 2005))


@pytest.fixture(scope="module")
def precip():
    return PrecipitationSimulator(
        lat_step=10.0, lon_step=10.0, num_years=8,
        start_year=1990, event_year=1995, seed=3,
    ).generate(month=1)


class TestPrecipitation:
    def test_dimensions(self, precip):
        assert len(precip.graph) == 8
        assert precip.values.shape == (8, precip.graph.num_nodes)

    def test_event_index(self, precip):
        assert precip.years[precip.event_year_index] == 1995
        assert precip.event_transition == precip.event_year_index - 1

    def test_regions_nonempty(self, precip):
        for name in REGIONS:
            assert precip.region_nodes[name].size > 0

    def test_knn_degree(self, precip):
        snapshot = precip.graph[0]
        degrees = np.asarray(
            (snapshot.adjacency > 0).sum(axis=1)
        ).ravel()
        assert degrees.min() >= 10  # symmetrised 10-NN

    def test_shifts_applied(self, precip):
        event = precip.event_year_index
        for region, shift in EVENT_SHIFTS.items():
            nodes = precip.region_nodes[region]
            series = precip.values[:, nodes].mean(axis=1)
            others = np.delete(series, event)
            if shift > 0:
                assert series[event] > others.max()
            else:
                assert series[event] < others.min()

    def test_unchanged_regions_stay_put(self, precip):
        event = precip.event_year_index
        series = precip.yearly_region_means("eastern_equatorial_africa")
        others = np.delete(series, event)
        spread = others.max() - others.min()
        assert abs(series[event] - others.mean()) < 2 * max(spread, 0.01)

    def test_node_region_lookup(self, precip):
        nodes = precip.region_nodes["brazil"]
        assert precip.node_region(int(nodes[0])) == "brazil"

    def test_shifted_nodes_cover_all_event_regions(self, precip):
        shifted = set(precip.shifted_nodes().tolist())
        for region in EVENT_SHIFTS:
            assert set(precip.region_nodes[region].tolist()) <= shifted

    def test_rejects_event_outside_span(self):
        with pytest.raises(DatasetError):
            PrecipitationSimulator(num_years=5, start_year=2000,
                                   event_year=2010)

    def test_rejects_bad_month(self, precip):
        simulator = PrecipitationSimulator(
            lat_step=20.0, lon_step=20.0, num_years=5,
            start_year=1990, event_year=1992,
        )
        with pytest.raises(DatasetError):
            simulator.generate(month=0)

    def test_all_months(self):
        simulator = PrecipitationSimulator(
            lat_step=10.0, lon_step=10.0, num_years=4,
            start_year=1990, event_year=1992, knn=3, seed=0,
        )
        by_month = simulator.generate_all_months()
        assert set(by_month) == set(range(1, 13))
        january = by_month[1]
        july = by_month[7]
        # Seasonality lives outside the named regions, whose climate
        # class is forced to the same value in every month: southern
        # cells are wetter in their summer (January), northern cells
        # in July. The margin holds on every seed checked (ratios of
        # at least 1.74 and 1.63 over seeds 0-299).
        named = np.concatenate(list(january.region_nodes.values()))
        outside = np.setdiff1d(np.arange(january.latitudes.size), named)
        south = outside[january.latitudes[outside] < 0]
        north = outside[january.latitudes[outside] > 0]

        def mean(data, cells):
            return float(data.values[:, cells].mean())

        assert mean(january, south) > 1.2 * mean(july, south)
        assert mean(july, north) > 1.2 * mean(january, north)
