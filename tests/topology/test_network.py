"""Topology graph and routing."""

import pytest

from repro import Flow, Message, Network, units
from repro.errors import InvalidTopologyError, RoutingError
from repro.topology import NodeKind


def small_network():
    network = Network("test")
    network.add_switch("sw", technology_delay=units.us(16))
    for name in ("a", "b", "c"):
        network.add_station(name)
        network.add_link(name, "sw", capacity=units.mbps(10),
                         propagation_delay=1e-6)
    return network


class TestConstruction:
    def test_node_kinds(self):
        network = small_network()
        assert network.kind("sw") is NodeKind.SWITCH
        assert network.kind("a") is NodeKind.STATION
        assert network.is_switch("sw")
        assert not network.is_switch("a")

    def test_station_and_switch_listings(self):
        network = small_network()
        assert network.stations == ["a", "b", "c"]
        assert network.switches == ["sw"]
        assert network.nodes == ["a", "b", "c", "sw"]

    def test_duplicate_node_rejected(self):
        network = small_network()
        with pytest.raises(InvalidTopologyError):
            network.add_station("a")

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidTopologyError):
            Network().add_station("")

    def test_unknown_kind_lookup_rejected(self):
        with pytest.raises(InvalidTopologyError):
            small_network().kind("missing")

    def test_negative_technology_delay_rejected(self):
        with pytest.raises(InvalidTopologyError):
            Network().add_switch("sw", technology_delay=-1e-6)

    def test_technology_delay_lookup(self):
        assert small_network().technology_delay("sw") == \
            pytest.approx(units.us(16))

    def test_technology_delay_of_station_rejected(self):
        with pytest.raises(InvalidTopologyError):
            small_network().technology_delay("a")


class TestLinks:
    def test_link_attributes(self):
        link = small_network().link("a", "sw")
        assert link.capacity == units.mbps(10)
        assert link.propagation_delay == 1e-6

    def test_link_is_bidirectional_lookup(self):
        network = small_network()
        assert network.link("a", "sw") is network.link("sw", "a")

    def test_missing_link_rejected(self):
        with pytest.raises(InvalidTopologyError):
            small_network().link("a", "b")

    def test_duplicate_link_rejected(self):
        network = small_network()
        with pytest.raises(InvalidTopologyError):
            network.add_link("a", "sw", capacity=units.mbps(10))

    def test_link_to_unknown_node_rejected(self):
        network = small_network()
        with pytest.raises(InvalidTopologyError):
            network.add_link("a", "ghost", capacity=units.mbps(10))

    def test_self_link_rejected(self):
        network = Network()
        network.add_switch("sw")
        with pytest.raises(InvalidTopologyError):
            network.add_link("sw", "sw", capacity=1e6)

    def test_zero_capacity_rejected(self):
        network = small_network()
        network.add_station("d")
        with pytest.raises(InvalidTopologyError):
            network.add_link("d", "sw", capacity=0)

    def test_link_other_endpoint(self):
        link = small_network().link("a", "sw")
        assert link.other("a") == "sw"
        assert link.other("sw") == "a"
        with pytest.raises(InvalidTopologyError):
            link.other("b")

    def test_links_and_neighbors(self):
        network = small_network()
        assert len(network.links()) == 3
        assert network.neighbors("sw") == ["a", "b", "c"]
        assert network.degree("sw") == 3


class TestRouting:
    def test_station_to_station_via_switch(self):
        assert small_network().route("a", "b") == ["a", "sw", "b"]

    def test_route_unknown_node_rejected(self):
        with pytest.raises(RoutingError):
            small_network().route("a", "ghost")

    def test_route_no_path_rejected(self):
        network = small_network()
        network.add_station("island")
        with pytest.raises(RoutingError):
            network.route("a", "island")

    def test_route_flow_fills_the_path(self):
        network = small_network()
        message = Message.periodic("m", period=units.ms(20), size=100,
                                   source="a", destination="c")
        flow = network.route_flow(message)
        assert isinstance(flow, Flow)
        assert flow.path == ("a", "sw", "c")

    def test_topology_changes_drop_cached_routes(self):
        """Routes are cached per destination; every mutation drops them."""
        network = Network("cache")
        for name in ("sw-a", "sw-c", "sw-d"):
            network.add_switch(name)
        for station, switch in (("a", "sw-a"), ("b", "sw-d")):
            network.add_station(station)
            network.add_link(station, switch, capacity=units.mbps(10))
        network.add_link("sw-a", "sw-c", capacity=units.mbps(10))
        network.add_link("sw-c", "sw-d", capacity=units.mbps(10))
        assert network.route("a", "b") == ["a", "sw-a", "sw-c", "sw-d", "b"]

        # An equal-length detour through a smaller switch name now wins.
        network.add_switch("sw-b")
        network.add_link("sw-a", "sw-b", capacity=units.mbps(10))
        network.add_link("sw-b", "sw-d", capacity=units.mbps(10))
        assert network.route("a", "b") == ["a", "sw-a", "sw-b", "sw-d", "b"]

        # A newly attached station is reachable at once.
        network.add_station("c")
        network.add_link("c", "sw-d", capacity=units.mbps(10))
        assert network.route("a", "c") == ["a", "sw-a", "sw-b", "sw-d", "c"]

        # A shortcut link shortens the cached route.
        network.add_link("sw-a", "sw-d", capacity=units.mbps(10))
        assert network.route("a", "b") == ["a", "sw-a", "sw-d", "b"]

    def test_route_flows_routes_every_flow(self):
        network = small_network()
        messages = [
            Message.periodic("m1", period=units.ms(20), size=100,
                             source="a", destination="b"),
            Message.periodic("m2", period=units.ms(20), size=100,
                             source="b", destination="c"),
        ]
        flows = network.route_flows(messages)
        assert all(flow.path for flow in flows)


class TestValidation:
    def test_valid_star_passes(self):
        small_network().validate()

    def test_empty_topology_rejected(self):
        with pytest.raises(InvalidTopologyError):
            Network().validate()

    def test_disconnected_topology_rejected(self):
        network = small_network()
        network.add_station("island")
        with pytest.raises(InvalidTopologyError):
            network.validate()

    def test_station_with_two_uplinks_rejected(self):
        network = small_network()
        network.add_switch("sw2")
        network.add_link("sw", "sw2", capacity=units.mbps(10))
        network.add_link("a", "sw2", capacity=units.mbps(10))
        with pytest.raises(InvalidTopologyError):
            network.validate()

    def test_station_to_station_link_rejected(self):
        network = Network()
        network.add_station("a")
        network.add_station("b")
        network.add_link("a", "b", capacity=units.mbps(10))
        with pytest.raises(InvalidTopologyError):
            network.validate()

    def test_access_switch(self):
        assert small_network().access_switch("a") == "sw"
