"""Canonical topology builders used by the experiments.

The paper's implicit architecture is a **single-switch star**: every station
is attached to one Full-Duplex Switched Ethernet switch by a 10 Mbps link.
The builders below create that layout plus two natural extensions (dual
switch and tree) used by the scalability/ablation experiments.  Each one
declares a :class:`~repro.topology.graph.GraphTopologySpec` and returns
its :class:`~repro.topology.network.Network` view.
"""

from __future__ import annotations

from repro import units
from repro.errors import InvalidTopologyError
from repro.topology.graph import (
    DEFAULT_TECHNOLOGY_DELAY,
    GraphLink,
    GraphNode,
    GraphTopologySpec,
    _station_name,
)
from repro.topology.network import Network

__all__ = ["single_switch_star", "dual_switch_topology", "tree_topology"]


def single_switch_star(station_count: int,
                       capacity: float = units.mbps(10),
                       technology_delay: float = DEFAULT_TECHNOLOGY_DELAY,
                       propagation_delay: float = 0.0,
                       switch_name: str = "switch-0") -> Network:
    """A star of ``station_count`` stations around one switch.

    This is the paper's architecture: every station has a dedicated
    full-duplex link of ``capacity`` (10 Mbps by default) to the switch.
    """
    if station_count < 2:
        raise InvalidTopologyError(
            f"a star needs at least 2 stations, got {station_count}")
    nodes = [GraphNode(switch_name, "switch",
                       technology_delay=float(technology_delay))]
    links = []
    for index in range(station_count):
        station = _station_name(index)
        nodes.append(GraphNode(station, "end-system"))
        links.append(GraphLink(station, switch_name, rate=capacity,
                               latency=propagation_delay))
    return GraphTopologySpec(name=f"star-{station_count}", nodes=tuple(nodes),
                             links=tuple(links)).to_network()


def dual_switch_topology(stations_per_switch: int,
                         capacity: float = units.mbps(10),
                         backbone_capacity: float | None = None,
                         technology_delay: float = DEFAULT_TECHNOLOGY_DELAY,
                         propagation_delay: float = 0.0) -> Network:
    """Two switches joined by a backbone link, each serving its own stations.

    Models a federated architecture (e.g. forward / aft equipment bays).
    Stations ``station-00 .. station-(n-1)`` hang off ``switch-0`` and
    ``station-n .. station-(2n-1)`` off ``switch-1``.
    """
    if stations_per_switch < 1:
        raise InvalidTopologyError(
            f"need at least 1 station per switch, got {stations_per_switch}")
    if backbone_capacity is None:
        backbone_capacity = capacity
    nodes = [GraphNode(name, "switch",
                       technology_delay=float(technology_delay))
             for name in ("switch-0", "switch-1")]
    links = [GraphLink("switch-0", "switch-1", rate=backbone_capacity,
                       latency=propagation_delay)]
    for index in range(2 * stations_per_switch):
        station = _station_name(index)
        switch = "switch-0" if index < stations_per_switch else "switch-1"
        nodes.append(GraphNode(station, "end-system"))
        links.append(GraphLink(station, switch, rate=capacity,
                               latency=propagation_delay))
    return GraphTopologySpec(name=f"dual-{2 * stations_per_switch}",
                             nodes=tuple(nodes),
                             links=tuple(links)).to_network()


def tree_topology(leaf_switches: int, stations_per_leaf: int,
                  capacity: float = units.mbps(10),
                  backbone_capacity: float | None = None,
                  technology_delay: float = DEFAULT_TECHNOLOGY_DELAY,
                  propagation_delay: float = 0.0) -> Network:
    """A two-level tree: a core switch with ``leaf_switches`` access switches.

    Stations are spread evenly across the leaf switches; every leaf connects
    to the core by a backbone link.  Flows between stations on different
    leaves cross three multiplexing points (station, leaf uplink, core
    downlink), which exercises the end-to-end composition.
    """
    if leaf_switches < 1:
        raise InvalidTopologyError(
            f"need at least one leaf switch, got {leaf_switches}")
    if stations_per_leaf < 1:
        raise InvalidTopologyError(
            f"need at least one station per leaf, got {stations_per_leaf}")
    if backbone_capacity is None:
        backbone_capacity = capacity
    technology_delay = float(technology_delay)
    nodes = [GraphNode("core", "switch", technology_delay=technology_delay)]
    links = []
    index = 0
    for leaf in range(leaf_switches):
        leaf_name = f"leaf-{leaf}"
        nodes.append(GraphNode(leaf_name, "switch",
                               technology_delay=technology_delay))
        links.append(GraphLink(leaf_name, "core", rate=backbone_capacity,
                               latency=propagation_delay))
        for __ in range(stations_per_leaf):
            station = _station_name(index)
            nodes.append(GraphNode(station, "end-system"))
            links.append(GraphLink(station, leaf_name, rate=capacity,
                                   latency=propagation_delay))
            index += 1
    return GraphTopologySpec(name=f"tree-{leaf_switches}x{stations_per_leaf}",
                             nodes=tuple(nodes),
                             links=tuple(links)).to_network()
