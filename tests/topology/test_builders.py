"""Canonical topology builders."""

import pytest

from repro import units
from repro.errors import InvalidTopologyError
from repro.topology import dual_switch_topology, single_switch_star, tree_topology


class TestSingleSwitchStar:
    def test_counts(self):
        network = single_switch_star(8)
        assert len(network.stations) == 8
        assert network.switches == ["switch-0"]
        assert len(network.spec.links) == 8

    def test_every_station_routes_through_the_switch(self):
        network = single_switch_star(4)
        assert network.route("station-00", "station-03") == [
            "station-00", "switch-0", "station-03"]

    def test_capacity_and_technology_delay(self):
        network = single_switch_star(4, capacity=units.mbps(100),
                                     technology_delay=units.us(40))
        assert network.link("station-00", "switch-0").rate == \
            units.mbps(100)
        assert network.technology_delay("switch-0") == pytest.approx(
            units.us(40))

    def test_default_capacity_matches_the_paper(self):
        network = single_switch_star(4)
        assert network.link("station-00", "switch-0").rate == \
            units.mbps(10)

    def test_too_few_stations_rejected(self):
        with pytest.raises(InvalidTopologyError):
            single_switch_star(1)

    def test_result_is_validated(self):
        assert single_switch_star(16).spec.problems() == ()


class TestDualSwitch:
    def test_counts(self):
        network = dual_switch_topology(stations_per_switch=3)
        assert len(network.stations) == 6
        assert len(network.switches) == 2
        # 6 station links + 1 backbone.
        assert len(network.spec.links) == 7

    def test_cross_switch_route_has_two_switches(self):
        network = dual_switch_topology(stations_per_switch=2)
        route = network.route("station-00", "station-03")
        assert route == ["station-00", "switch-0", "switch-1", "station-03"]

    def test_backbone_capacity_override(self):
        network = dual_switch_topology(stations_per_switch=2,
                                       backbone_capacity=units.mbps(100))
        assert network.link("switch-0", "switch-1").rate == \
            units.mbps(100)

    def test_invalid_count_rejected(self):
        with pytest.raises(InvalidTopologyError):
            dual_switch_topology(stations_per_switch=0)


class TestTree:
    def test_counts(self):
        network = tree_topology(leaf_switches=3, stations_per_leaf=4)
        assert len(network.stations) == 12
        assert len(network.switches) == 4  # core + 3 leaves

    def test_cross_leaf_route_goes_through_the_core(self):
        network = tree_topology(leaf_switches=2, stations_per_leaf=2)
        route = network.route("station-00", "station-02")
        assert route == ["station-00", "leaf-0", "core", "leaf-1",
                         "station-02"]

    def test_same_leaf_route_stays_local(self):
        network = tree_topology(leaf_switches=2, stations_per_leaf=2)
        assert network.route("station-00", "station-01") == [
            "station-00", "leaf-0", "station-01"]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidTopologyError):
            tree_topology(leaf_switches=0, stations_per_leaf=2)
        with pytest.raises(InvalidTopologyError):
            tree_topology(leaf_switches=2, stations_per_leaf=0)
