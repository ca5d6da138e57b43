"""Property wall for the deterministic routing engine.

The routing engine's promises are structural, not numeric, so they are
tested as properties over a grid of topology families and seeds:

* every route is a **simple path** that follows declared link
  directions, with switches-only interiors (end systems never relay),
* routes are **minimal**: on small graphs an exhaustive brute-force
  enumeration of all simple paths confirms both the cost and the
  lexicographic tie-break,
* ECMP enumeration is exhaustive, ordered, and **independent of
  ``PYTHONHASHSEED``** — asserted by re-running the enumeration in
  subprocesses with different hash seeds and comparing byte output.
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

from repro.errors import RoutingError
from repro.flows.flow import Flow
from repro.flows.messages import Message, MessageKind
from repro.topology.graph import (
    GraphLink,
    GraphNode,
    GraphTopologySpec,
    diamond_graph_spec,
    random_graph_spec,
    ring_graph_spec,
    star_graph_spec,
)
from repro.topology.routing import RoutingEngine, lexicographic_shortest_path

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

#: The property grid: every family the registry and the fuzz generator
#: draw from, at a couple of sizes and seeds each.
PROPERTY_SPECS = [
    star_graph_spec(4),
    star_graph_spec(8),
    diamond_graph_spec(6),
    diamond_graph_spec(9),
    ring_graph_spec(6, switch_count=3),
    ring_graph_spec(8, switch_count=5),
    random_graph_spec(6, switch_count=4, extra_links=2, seed=0),
    random_graph_spec(8, switch_count=5, extra_links=3, seed=7),
    random_graph_spec(10, switch_count=6, extra_links=0, seed=13),
]

SPEC_IDS = [spec.name + f"-{len(spec.end_systems)}es"
            for spec in PROPERTY_SPECS]


def brute_force_paths(spec: GraphTopologySpec, source: str,
                      destination: str) -> list[tuple[str, ...]]:
    """Every simple source->destination path with switch-only interiors."""
    successors = spec.successors()
    found: list[tuple[str, ...]] = []

    def _walk(node: str, prefix: list[str]) -> None:
        if node == destination:
            found.append(tuple(prefix))
            return
        if node != source and not spec.is_switch(node):
            return
        for successor in successors.get(node, ()):
            if successor not in prefix:
                prefix.append(successor)
                _walk(successor, prefix)
                prefix.pop()

    _walk(source, [source])
    return found


def es_pairs(spec: GraphTopologySpec):
    return [(a, b) for a, b in permutations(spec.end_systems, 2)]


@pytest.mark.parametrize("spec", PROPERTY_SPECS, ids=SPEC_IDS)
class TestRouteStructure:
    def test_routes_are_simple_paths(self, spec):
        engine = RoutingEngine(spec)
        for source, destination in es_pairs(spec):
            path = engine.shortest_path(source, destination)
            assert path[0] == source and path[-1] == destination
            assert len(set(path)) == len(path), \
                f"route {path} revisits a node"

    def test_routes_follow_declared_link_directions(self, spec):
        engine = RoutingEngine(spec)
        successors = spec.successors()
        for source, destination in es_pairs(spec):
            path = engine.shortest_path(source, destination)
            for hop_source, hop_target in zip(path, path[1:]):
                assert hop_target in successors[hop_source], \
                    f"{hop_source}->{hop_target} is not a declared link"
                # The edge lookup must agree (attributes are resolvable).
                assert spec.edge(hop_source, hop_target).rate > 0

    def test_interior_nodes_are_switches(self, spec):
        engine = RoutingEngine(spec)
        for source, destination in es_pairs(spec):
            path = engine.shortest_path(source, destination)
            for interior in path[1:-1]:
                assert spec.is_switch(interior), \
                    f"end system {interior} relays on {path}"

    def test_every_ecmp_path_shares_the_minimal_cost(self, spec):
        engine = RoutingEngine(spec)
        for source, destination in es_pairs(spec):
            paths = engine.ecmp_paths(source, destination)
            best = len(engine.shortest_path(source, destination))
            assert paths, "at least the shortest path must be enumerated"
            assert paths[0] == engine.shortest_path(source, destination)
            assert list(paths) == sorted(paths), \
                "ECMP enumeration must be lexicographically ordered"
            assert len(set(paths)) == len(paths)
            for path in paths:
                assert len(path) == best

    def test_selected_path_is_one_of_the_ecmp_set(self, spec):
        engine = RoutingEngine(spec)
        for source, destination in es_pairs(spec)[:6]:
            paths = engine.ecmp_paths(source, destination)
            chosen = engine.select_path(source, destination,
                                        key=f"{source}->{destination}")
            assert chosen in paths


@pytest.mark.parametrize("spec", PROPERTY_SPECS, ids=SPEC_IDS)
def test_brute_force_minimality_and_tie_break(spec):
    """Exhaustive check on small graphs: fewest hops, smallest-name tie.

    The engine promises the lexicographically smallest of all minimal
    -hop simple paths.  These graphs are small enough to enumerate all
    simple paths outright, so the promise is checked literally.
    """
    engine = RoutingEngine(spec)
    for source, destination in es_pairs(spec):
        candidates = brute_force_paths(spec, source, destination)
        assert candidates, f"no path {source}->{destination}"
        best = min(len(path) for path in candidates)
        minimal = sorted(path for path in candidates if len(path) == best)
        assert engine.shortest_path(source, destination) == minimal[0]
        assert engine.ecmp_paths(source, destination) == tuple(minimal)


def test_no_route_raises_routing_error():
    spec = GraphTopologySpec(
        name="two-islands",
        nodes=(GraphNode("es-a", "end-system"),
               GraphNode("es-b", "end-system"),
               GraphNode("sw-1", "switch"),
               GraphNode("sw-2", "switch")),
        links=(GraphLink("es-a", "sw-1"), GraphLink("es-b", "sw-2")))
    engine = RoutingEngine(spec)
    assert not engine.has_route("es-a", "es-b")
    with pytest.raises(RoutingError, match="no path"):
        engine.shortest_path("es-a", "es-b")
    with pytest.raises(RoutingError, match="no path"):
        engine.ecmp_paths("es-a", "es-b")
    assert engine.diagnostics() == [
        "no route from 'es-a' to 'es-b'",
        "no route from 'es-b' to 'es-a'",
    ]


def test_diagnostics_empty_on_connected_families():
    for spec in PROPERTY_SPECS:
        assert RoutingEngine(spec).diagnostics() == []


def test_end_systems_never_relay_even_when_shorter():
    """A two-port end system in the middle must not be used as a relay."""
    # sw-mid sits between sw-1 and sw-2 with es-mid attached; the bridge
    # via sw-bridge has the same hop count, so if es-mid's attachment
    # point ever counted as a shortcut the assertion below would notice.
    spec = GraphTopologySpec(
        name="tempting-relay",
        nodes=(GraphNode("es-a", "end-system"),
               GraphNode("es-b", "end-system"),
               GraphNode("es-mid", "end-system"),
               GraphNode("sw-1", "switch"),
               GraphNode("sw-2", "switch"),
               GraphNode("sw-bridge", "switch"),
               GraphNode("sw-mid", "switch")),
        links=(GraphLink("es-a", "sw-1"),
               GraphLink("es-mid", "sw-mid"),
               GraphLink("sw-1", "sw-mid"),
               GraphLink("sw-mid", "sw-2"),
               GraphLink("sw-2", "es-b"),
               GraphLink("sw-1", "sw-bridge"),
               GraphLink("sw-bridge", "sw-2")))
    engine = RoutingEngine(spec)
    path = engine.shortest_path("es-a", "es-b")
    assert "es-mid" not in path
    for interior in path[1:-1]:
        assert spec.is_switch(interior)


def test_route_flow_attaches_the_deterministic_path():
    spec = diamond_graph_spec(6)
    engine = RoutingEngine(spec)
    message = Message(name="probe", kind=MessageKind.PERIODIC,
                      period=20e-3, size=512.0,
                      source="station-00", destination="station-05")
    flow = Flow(message=message)
    routed = engine.route_flow(flow)
    assert routed.path == engine.shortest_path("station-00", "station-05")
    # An explicit path is preserved, not recomputed.
    pinned = flow.with_path(("station-00", "sw-a", "sw-c", "sw-d",
                             "station-05"))
    assert engine.route_flow(pinned).path == pinned.path


def test_diamond_tie_breaks_via_the_smaller_switch_name():
    """The canonical ECMP tie: sw-b beats sw-c lexicographically."""
    spec = diamond_graph_spec(6)
    engine = RoutingEngine(spec)
    path = engine.shortest_path("station-00", "station-05")
    assert path == ("station-00", "sw-a", "sw-b", "sw-d", "station-05")
    assert engine.ecmp_paths("station-00", "station-05") == (
        ("station-00", "sw-a", "sw-b", "sw-d", "station-05"),
        ("station-00", "sw-a", "sw-c", "sw-d", "station-05"))


#: Seeded families for the Network/RoutingEngine agreement check: the
#: cyclic ones are where equal-length routes tie and the tie-break rule
#: decides.
AGREEMENT_SPECS = (
    [diamond_graph_spec(count) for count in (4, 7, 12)]
    + [ring_graph_spec(count, switch_count=switches)
       for count, switches in ((6, 3), (9, 4), (12, 6))]
    + [random_graph_spec(count, switch_count=switches, extra_links=extra,
                         seed=seed)
       for seed in range(8)
       for count, switches, extra in ((7, 4, 2), (10, 6, 4))])


@pytest.mark.parametrize(
    "spec", AGREEMENT_SPECS,
    ids=[f"{spec.name}-{len(spec.end_systems)}es-{index}"
         for index, spec in enumerate(AGREEMENT_SPECS)])
def test_network_and_routing_engine_pick_the_same_route(spec):
    """Both routing front ends apply one lexicographic rule."""
    network = spec.to_network()
    engine = RoutingEngine(spec)
    for source, destination in permutations(spec.end_systems, 2):
        assert network.route(source, destination) == \
            list(engine.shortest_path(source, destination))


def test_lexicographic_helper_handles_source_equals_destination():
    assert lexicographic_shortest_path(
        ("a",), {"a": ()}, "a", "a") == ("a",)


_HASH_SEED_SCRIPT = """\
import json
from repro.topology.graph import diamond_graph_spec, random_graph_spec
from repro.topology.routing import RoutingEngine

lines = []
for spec in (diamond_graph_spec(8),
             random_graph_spec(8, switch_count=5, extra_links=3, seed=7)):
    engine = RoutingEngine(spec)
    for source in spec.end_systems:
        for destination in spec.end_systems:
            if source == destination:
                continue
            paths = engine.ecmp_paths(source, destination)
            chosen = engine.select_path(source, destination,
                                        key=f"flow:{source}->{destination}")
            lines.append(json.dumps({
                "pair": [source, destination],
                "paths": [list(p) for p in paths],
                "chosen": list(chosen),
            }, sort_keys=True))
print("\\n".join(lines))
"""


def _routes_under_hash_seed(seed: str) -> str:
    """Run the enumeration in a fresh interpreter with one hash seed."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(SRC_ROOT)
    result = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_SCRIPT], env=env,
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_ecmp_selection_is_independent_of_pythonhashseed():
    """Routes and ECMP choices are identical under different hash seeds.

    ``PYTHONHASHSEED`` randomises ``hash()`` and therefore set/dict
    iteration order of strings.  The engine sorts by value everywhere
    and selects ECMP members via SHA-256, so two interpreters with
    different hash seeds must print byte-identical route tables.
    """
    baseline = _routes_under_hash_seed("0")
    assert baseline.strip(), "the probe script must emit route lines"
    assert _routes_under_hash_seed("12345") == baseline
