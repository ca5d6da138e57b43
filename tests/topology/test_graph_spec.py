"""Graph topology specs: parsing, validation, conversion, fingerprints."""

from __future__ import annotations

import json

import pytest

from repro import units
from repro.errors import ConfigurationError, InvalidTopologyError
from repro.store import fingerprint
from repro.topology.graph import (
    GraphLink,
    GraphNode,
    GraphTopologySpec,
    diamond_graph_spec,
    load_topology_file,
    random_graph_spec,
    ring_graph_spec,
    star_graph_spec,
)


def routing_digest(spec):
    """All shortest routes of a spec, as a comparable tuple."""
    from repro.topology.routing import RoutingEngine

    engine = RoutingEngine(spec)
    return tuple(engine.shortest_path(a, b)
                 for a in spec.end_systems
                 for b in spec.end_systems if a != b)


class TestJsonRoundTrip:
    def test_to_dict_from_dict_is_identity(self):
        for spec in (star_graph_spec(4), diamond_graph_spec(6),
                     ring_graph_spec(6, switch_count=3),
                     random_graph_spec(6, switch_count=4, seed=3)):
            assert GraphTopologySpec.from_dict(spec.to_dict()) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = diamond_graph_spec(8)
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert load_topology_file(path) == spec

    def test_ports_and_directed_links_survive(self):
        spec = GraphTopologySpec(
            name="ported",
            nodes=(GraphNode("es-a", "end-system"),
                   GraphNode("es-b", "end-system"),
                   GraphNode("sw-1", "switch",
                             technology_delay=units.us(16))),
            links=(GraphLink("es-a", "sw-1", source_port=0, target_port=1),
                   GraphLink("es-b", "sw-1", directed=True),
                   GraphLink("sw-1", "es-b", directed=True)))
        assert GraphTopologySpec.from_dict(spec.to_dict()) == spec

    def test_unknown_document_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys: extra"):
            GraphTopologySpec.from_dict(
                {"name": "x", "nodes": [], "links": [], "extra": 1})

    def test_unknown_node_key_rejected(self):
        with pytest.raises(ConfigurationError,
                           match=r"nodes\[0\]: unknown keys: speed"):
            GraphTopologySpec.from_dict(
                {"name": "x",
                 "nodes": [{"name": "a", "kind": "switch", "speed": 3}],
                 "links": []})

    def test_unknown_link_key_rejected(self):
        with pytest.raises(ConfigurationError,
                           match=r"links\[0\]: unknown keys: cost"):
            GraphTopologySpec.from_dict(
                {"name": "x",
                 "nodes": [{"name": "a", "kind": "switch"},
                           {"name": "b", "kind": "switch"}],
                 "links": [{"source": "a", "target": "b", "cost": 2}]})

    def test_nan_latency_rejected(self):
        # ``json`` accepts the non-standard NaN literal.
        payload = json.loads(
            '{"name": "x", "nodes": [{"name": "sw", "kind": "switch"}, '
            '{"name": "es", "kind": "end-system"}], '
            '"links": [{"source": "es", "target": "sw", "latency_us": NaN}]}')
        with pytest.raises(InvalidTopologyError, match="must be finite"):
            GraphTopologySpec.from_dict(payload)

    def test_nan_technology_delay_rejected(self):
        with pytest.raises(InvalidTopologyError, match="must be finite"):
            GraphTopologySpec.from_dict(
                {"name": "x",
                 "nodes": [{"name": "sw", "kind": "switch",
                            "technology_delay_us": float("nan")}],
                 "links": []})

    def test_string_directed_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="'directed' must be true or false"):
            GraphTopologySpec.from_dict(
                {"name": "x",
                 "nodes": [{"name": "a", "kind": "switch"},
                           {"name": "b", "kind": "switch"}],
                 "links": [{"source": "a", "target": "b",
                            "directed": "false"}]})

    def test_non_numeric_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a number"):
            GraphTopologySpec.from_dict(
                {"name": "x",
                 "nodes": [{"name": "a", "kind": "switch"},
                           {"name": "b", "kind": "switch"}],
                 "links": [{"source": "a", "target": "b",
                            "rate_mbps": "fast"}]})

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError,
                           match="not a valid JSON document"):
            load_topology_file(path)

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "topology.yaml"
        path.write_text("irrelevant")
        with pytest.raises(ConfigurationError,
                           match="unknown topology format"):
            load_topology_file(path)


class TestCsvLoader:
    CSV = """\
# wcdTool-style topology
ES,station-00
ES,station-01
SW,sw-1,20
LINK,l0,station-00,0,sw-1,1,100,2
LINK,l1,station-01,0,sw-1,2
"""

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text(self.CSV)
        spec = load_topology_file(path)
        assert spec.name == "net"
        assert spec.end_systems == ("station-00", "station-01")
        assert spec.switches == ("sw-1",)
        assert spec.technology_delay("sw-1") == pytest.approx(units.us(20))
        first = spec.edge("station-00", "sw-1")
        assert first.rate == pytest.approx(units.mbps(100))
        assert first.latency == pytest.approx(units.us(2))
        assert first.source_port == 0 and first.target_port == 1
        # Defaults: 10 Mbps, no latency.
        second = spec.edge("station-01", "sw-1")
        assert second.rate == pytest.approx(units.mbps(10))
        assert second.latency == 0.0
        spec.validated()

    def test_unknown_row_type_rejected(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("ROUTER,r1\n")
        with pytest.raises(ConfigurationError, match="unknown row type"):
            load_topology_file(path)

    def test_short_link_row_rejected(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("LINK,l0,station-00\n")
        with pytest.raises(ConfigurationError, match="missing field"):
            load_topology_file(path)

    def test_nan_rate_field_rejected(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("ES,station-00\nSW,sw-1\n"
                        "LINK,l0,station-00,0,sw-1,1,nan\n")
        with pytest.raises(InvalidTopologyError, match="must be finite"):
            load_topology_file(path)

    def test_non_numeric_rate_field_rejected(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("LINK,l0,station-00,0,sw-1,1,fast\n")
        with pytest.raises(ConfigurationError, match="malformed row"):
            load_topology_file(path)


class TestStructuralValidation:
    def test_self_loop_rejected_at_construction(self):
        with pytest.raises(InvalidTopologyError,
                           match="cyclic link: 'sw' connects to itself"):
            GraphLink("sw", "sw")

    def test_end_system_with_technology_delay_rejected(self):
        with pytest.raises(InvalidTopologyError, match="does not relay"):
            GraphNode("es-a", "end-system", technology_delay=units.us(1))

    def test_duplicate_node_reported(self):
        spec = GraphTopologySpec(
            nodes=(GraphNode("a", "switch"), GraphNode("a", "switch"),
                   GraphNode("es", "end-system")),
            links=(GraphLink("es", "a"),))
        assert any("duplicate node 'a'" in problem
                   for problem in spec.problems())

    def test_unknown_endpoint_reported(self):
        spec = GraphTopologySpec(
            nodes=(GraphNode("es", "end-system"),
                   GraphNode("sw", "switch")),
            links=(GraphLink("es", "sw"), GraphLink("sw", "ghost")))
        assert any("unknown node 'ghost'" in problem
                   for problem in spec.problems())

    def test_port_clash_reported(self):
        spec = GraphTopologySpec(
            nodes=(GraphNode("es-a", "end-system"),
                   GraphNode("es-b", "end-system"),
                   GraphNode("sw", "switch")),
            links=(GraphLink("es-a", "sw", target_port=1),
                   GraphLink("es-b", "sw", target_port=1)))
        assert any("port 1 of 'sw' is used by 2 links" in problem
                   for problem in spec.problems())

    def test_disconnected_pair_reported(self):
        spec = GraphTopologySpec(
            nodes=(GraphNode("es-a", "end-system"),
                   GraphNode("es-b", "end-system"),
                   GraphNode("sw-1", "switch"),
                   GraphNode("sw-2", "switch")),
            links=(GraphLink("es-a", "sw-1"), GraphLink("es-b", "sw-2")))
        problems = spec.problems()
        assert "disconnected: no route from 'es-a' to 'es-b'" in problems
        assert spec.problems(connected=False) == ()
        with pytest.raises(InvalidTopologyError, match="disconnected"):
            spec.validated()

    def test_end_system_degree_enforced(self):
        spec = GraphTopologySpec(
            nodes=(GraphNode("es-a", "end-system"),
                   GraphNode("es-b", "end-system"),
                   GraphNode("sw-1", "switch"),
                   GraphNode("sw-2", "switch")),
            links=(GraphLink("es-a", "sw-1"), GraphLink("es-a", "sw-2"),
                   GraphLink("sw-1", "sw-2"), GraphLink("es-b", "sw-2")))
        assert any("exactly one uplink" in problem
                   for problem in spec.problems())

    def test_empty_node_name_rejected_at_construction(self):
        with pytest.raises(InvalidTopologyError, match="must not be empty"):
            GraphNode("", "switch")

    def test_negative_technology_delay_rejected_at_construction(self):
        with pytest.raises(InvalidTopologyError, match="technology delay"):
            GraphNode("sw", "switch", technology_delay=-1e-6)

    def test_zero_rate_rejected_at_construction(self):
        with pytest.raises(InvalidTopologyError, match="rate must be"):
            GraphLink("es", "sw", rate=0)

    @pytest.mark.parametrize("field,value", [
        ("rate", float("nan")), ("rate", float("inf")),
        ("latency", float("nan")), ("latency", float("inf"))])
    def test_non_finite_link_number_rejected(self, field, value):
        with pytest.raises(InvalidTopologyError, match="must be finite"):
            GraphLink("es", "sw", **{field: value})

    def test_non_finite_technology_delay_rejected(self):
        with pytest.raises(InvalidTopologyError, match="must be finite"):
            GraphNode("sw", "switch", technology_delay=float("nan"))

    def test_duplicate_link_reported(self):
        spec = GraphTopologySpec(
            nodes=(GraphNode("es", "end-system"), GraphNode("sw", "switch")),
            links=(GraphLink("es", "sw"), GraphLink("sw", "es")))
        assert "duplicate link 'sw'->'es'" in spec.problems()

    def test_end_system_attached_to_end_system_reported(self):
        spec = GraphTopologySpec(
            nodes=(GraphNode("es-a", "end-system"),
                   GraphNode("es-b", "end-system"),
                   GraphNode("sw", "switch")),
            links=(GraphLink("es-a", "es-b"),))
        assert any("attaches to end system" in problem
                   for problem in spec.problems())

    def test_empty_topology_reported(self):
        problems = GraphTopologySpec(name="empty").problems()
        assert "the topology has no end system" in problems
        assert "the topology has no switch" in problems

    def test_connected_full_duplex_spec_skips_the_pairwise_search(
            self, monkeypatch):
        calls = []
        original = GraphTopologySpec.is_switch
        monkeypatch.setattr(
            GraphTopologySpec, "is_switch",
            lambda spec, name: calls.append(name) or original(spec, name))
        assert star_graph_spec(32).problems() == ()
        assert calls == []
        # A directed link disables the shortcut: every pair is searched.
        spec = GraphTopologySpec(
            nodes=(GraphNode("es-a", "end-system"),
                   GraphNode("es-b", "end-system"),
                   GraphNode("sw", "switch")),
            links=(GraphLink("es-a", "sw"),
                   GraphLink("es-b", "sw", directed=True),
                   GraphLink("sw", "es-b", directed=True)))
        assert spec.problems() == ()
        assert calls

    def test_lowering_validates_each_spec_once(self, monkeypatch):
        from repro.core.endtoend import EndToEndAnalysis

        runs = []
        checks = GraphTopologySpec.__dict__["_local_problems"]
        original = checks.func
        monkeypatch.setattr(checks, "func",
                            lambda spec: runs.append(spec) or original(spec))
        spec = diamond_graph_spec(6)
        network = spec.to_network()
        network.route("station-00", "station-05")
        EndToEndAnalysis(network).analyze([])
        assert runs == [spec]

    def test_validated_mentions_remaining_problem_count(self):
        spec = GraphTopologySpec(
            nodes=(GraphNode("a", "switch"), GraphNode("a", "switch")),
            links=())
        with pytest.raises(InvalidTopologyError, match="more problems"):
            spec.validated()


class TestNetworkConversion:
    def test_star_spec_converts_to_the_legacy_star(self):
        from repro.topology import single_switch_star

        network = star_graph_spec(6).to_network()
        legacy = single_switch_star(6)
        assert sorted(network.stations) == sorted(legacy.stations)
        assert network.switches == legacy.switches
        assert set(network.spec.links) == set(legacy.spec.links)

    def test_network_routes_like_its_spec(self):
        spec = diamond_graph_spec(6)
        network = spec.to_network()
        assert network.spec is spec
        assert tuple(tuple(network.route(a, b))
                     for a in spec.end_systems
                     for b in spec.end_systems if a != b) == \
            routing_digest(spec)

    def test_directed_pair_merges_into_full_duplex(self):
        spec = GraphTopologySpec(
            name="duplex",
            nodes=(GraphNode("es-a", "end-system"),
                   GraphNode("es-b", "end-system"),
                   GraphNode("sw", "switch")),
            links=(GraphLink("es-a", "sw", directed=True),
                   GraphLink("sw", "es-a", directed=True),
                   GraphLink("es-b", "sw")))
        network = spec.to_network()
        assert network.link("es-a", "sw").rate == units.mbps(10)

    def test_directed_link_without_reverse_rejected(self):
        spec = GraphTopologySpec(
            name="one-way",
            nodes=(GraphNode("es-a", "end-system"),
                   GraphNode("es-b", "end-system"),
                   GraphNode("sw", "switch")),
            links=(GraphLink("es-a", "sw"),
                   GraphLink("es-b", "sw", directed=True),
                   GraphLink("sw", "es-b", directed=True,
                             rate=units.mbps(100))))
        with pytest.raises(InvalidTopologyError, match="disagree on rate"):
            spec.to_network()

    def test_directed_fabric_link_without_reverse_rejected(self):
        # The triangle keeps both directions reachable (via sw-3), so
        # structural validation passes and the conversion itself has to
        # reject the one-way sw-1 -> sw-2 fabric link.
        spec = GraphTopologySpec(
            name="one-way-fabric",
            nodes=(GraphNode("es-a", "end-system"),
                   GraphNode("es-b", "end-system"),
                   GraphNode("sw-1", "switch"),
                   GraphNode("sw-2", "switch"),
                   GraphNode("sw-3", "switch")),
            links=(GraphLink("es-a", "sw-1"),
                   GraphLink("es-b", "sw-2"),
                   GraphLink("sw-1", "sw-3"),
                   GraphLink("sw-3", "sw-2"),
                   GraphLink("sw-1", "sw-2", directed=True)))
        with pytest.raises(InvalidTopologyError, match="no reverse"):
            spec.to_network()


class TestFingerprints:
    def test_equal_specs_share_a_fingerprint(self):
        assert fingerprint(diamond_graph_spec(8)) == \
            fingerprint(diamond_graph_spec(8))

    def test_any_attribute_change_moves_the_fingerprint(self):
        base = fingerprint(random_graph_spec(8, switch_count=4, seed=0))
        assert fingerprint(random_graph_spec(8, switch_count=4,
                                             seed=1)) != base
        assert fingerprint(random_graph_spec(8, switch_count=5,
                                             seed=0)) != base
        assert fingerprint(random_graph_spec(
            8, switch_count=4, seed=0,
            capacity=units.mbps(100))) != base

    def test_random_family_is_seed_deterministic(self):
        assert random_graph_spec(10, switch_count=6, extra_links=3,
                                 seed=42) == \
            random_graph_spec(10, switch_count=6, extra_links=3, seed=42)
