"""The read-only network view of a topology spec, and its routing."""

import pickle

import pytest

from repro import Flow, Message, units
from repro.errors import InvalidTopologyError, RoutingError
from repro.topology import GraphLink, GraphNode, GraphTopologySpec


def small_spec(*extra_nodes, extra_links=()):
    nodes = [GraphNode("sw", "switch", technology_delay=units.us(16))]
    nodes.extend(GraphNode(name, "end-system") for name in ("a", "b", "c"))
    links = [GraphLink(name, "sw", rate=units.mbps(10), latency=1e-6)
             for name in ("a", "b", "c")]
    return GraphTopologySpec(name="test", nodes=tuple(nodes) + extra_nodes,
                             links=tuple(links) + tuple(extra_links))


def small_network():
    return small_spec().to_network()


class TestConstruction:
    def test_node_kinds(self):
        network = small_network()
        assert network.is_switch("sw")
        assert not network.is_switch("a")

    def test_station_and_switch_listings(self):
        network = small_network()
        assert network.name == "test"
        assert network.stations == ["a", "b", "c"]
        assert network.switches == ["sw"]

    def test_unknown_kind_lookup_rejected(self):
        with pytest.raises(InvalidTopologyError):
            small_network().is_switch("missing")

    def test_technology_delay_lookup(self):
        assert small_network().technology_delay("sw") == \
            pytest.approx(units.us(16))

    def test_technology_delay_of_station_rejected(self):
        with pytest.raises(InvalidTopologyError):
            small_network().technology_delay("a")

    def test_network_views_its_spec(self):
        spec = small_spec()
        assert spec.to_network().spec is spec

    def test_routed_network_pickles(self):
        network = small_network()
        network.route("a", "b")
        copy = pickle.loads(pickle.dumps(network))
        assert copy.spec == network.spec
        assert copy.route("a", "c") == ["a", "sw", "c"]


class TestLinks:
    def test_link_attributes(self):
        link = small_network().link("a", "sw")
        assert link.rate == units.mbps(10)
        assert link.latency == 1e-6

    def test_link_is_bidirectional_lookup(self):
        network = small_network()
        assert network.link("a", "sw") is network.link("sw", "a")

    def test_missing_link_rejected(self):
        with pytest.raises(InvalidTopologyError):
            small_network().link("a", "b")


class TestRouting:
    def test_station_to_station_via_switch(self):
        assert small_network().route("a", "b") == ["a", "sw", "b"]

    def test_route_unknown_node_rejected(self):
        with pytest.raises(RoutingError):
            small_network().route("a", "ghost")

    def test_route_flow_fills_the_path(self):
        network = small_network()
        message = Message.periodic("m", period=units.ms(20), size=100,
                                   source="a", destination="c")
        flow = network.route_flow(message)
        assert isinstance(flow, Flow)
        assert flow.path == ("a", "sw", "c")

    def test_route_flow_keeps_an_existing_path(self):
        network = small_network()
        message = Message.periodic("m", period=units.ms(20), size=100,
                                   source="a", destination="c")
        routed = network.route_flow(message)
        assert network.route_flow(routed) is routed

    def test_route_flows_routes_every_flow(self):
        network = small_network()
        messages = [
            Message.periodic("m1", period=units.ms(20), size=100,
                             source="a", destination="b"),
            Message.periodic("m2", period=units.ms(20), size=100,
                             source="b", destination="c"),
        ]
        flows = network.route_flows(messages)
        assert [flow.path for flow in flows] == [("a", "sw", "b"),
                                                 ("b", "sw", "c")]


class TestValidation:
    def test_valid_star_passes(self):
        assert small_network().stations == ["a", "b", "c"]

    def test_empty_topology_rejected(self):
        with pytest.raises(InvalidTopologyError):
            GraphTopologySpec(name="empty").to_network()

    def test_disconnected_topology_rejected(self):
        # Every end-system pair still routes, but the island switch
        # leaves the network disconnected.
        spec = small_spec(GraphNode("island", "switch"))
        assert spec.problems() == ()
        with pytest.raises(InvalidTopologyError, match="not connected"):
            spec.to_network()

    def test_station_with_two_uplinks_rejected(self):
        spec = small_spec(GraphNode("sw2", "switch"),
                          extra_links=(GraphLink("sw", "sw2"),
                                       GraphLink("a", "sw2")))
        with pytest.raises(InvalidTopologyError, match="exactly one uplink"):
            spec.to_network()

    def test_station_to_station_link_rejected(self):
        spec = GraphTopologySpec(
            name="direct",
            nodes=(GraphNode("a", "end-system"),
                   GraphNode("b", "end-system"),
                   GraphNode("sw", "switch")),
            links=(GraphLink("a", "b"),))
        with pytest.raises(InvalidTopologyError,
                           match="end systems must attach to switches"):
            spec.to_network()
