"""Network topology: stations, switches, full-duplex links and routing.

The paper's target architecture replaces the shared MIL-STD-1553B bus with a
Full-Duplex Switched Ethernet network: end stations attached to one or more
store-and-forward switches by full-duplex point-to-point links (no CSMA/CD,
no collisions).  This package models that physical layout once and computes
the routes flows take through it.

* :mod:`~repro.topology.graph` — the topology model: a declarative,
  fingerprintable :class:`~repro.topology.graph.GraphTopologySpec` of
  typed nodes and attributed links (diamond/ring/star/random families,
  JSON/CSV loaders, structural diagnostics),
* :mod:`~repro.topology.routing` — the deterministic
  :class:`~repro.topology.routing.RoutingEngine` (lexicographic
  shortest paths cached per destination, ECMP enumeration,
  reachability diagnostics),
* :class:`~repro.topology.network.Network` — the read-only view of a
  full-duplex spec that the simulator and the end-to-end analyses read,
  routed by the spec's engine (built by
  :meth:`~repro.topology.graph.GraphTopologySpec.to_network`),
* :mod:`~repro.topology.builders` — canonical layouts used by the
  experiments: single-switch star (the paper's implicit architecture),
  dual-switch and tree layouts for the scalability extensions.
"""

from repro.topology.network import Network
from repro.topology.builders import (
    dual_switch_topology,
    single_switch_star,
    tree_topology,
)
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
from repro.topology.routing import RoutingEngine, lexicographic_shortest_path

__all__ = [
    "Network",
    "single_switch_star",
    "dual_switch_topology",
    "tree_topology",
    "GraphNode",
    "GraphLink",
    "GraphTopologySpec",
    "diamond_graph_spec",
    "ring_graph_spec",
    "star_graph_spec",
    "random_graph_spec",
    "load_topology_file",
    "RoutingEngine",
    "lexicographic_shortest_path",
]
