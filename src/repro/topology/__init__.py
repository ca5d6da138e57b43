"""Network topology: stations, switches, full-duplex links and routing.

The paper's target architecture replaces the shared MIL-STD-1553B bus with a
Full-Duplex Switched Ethernet network: end stations attached to one or more
store-and-forward switches by full-duplex point-to-point links (no CSMA/CD,
no collisions).  This package models that physical layout and computes the
routes flows take through it.

* :class:`~repro.topology.network.Network` — the topology graph (a plain
  adjacency map) with typed nodes (stations / switches) and attributed links
  (capacity, propagation delay), plus shortest-path routing,
* :mod:`~repro.topology.builders` — canonical layouts used by the
  experiments: single-switch star (the paper's implicit architecture),
  dual-switch and tree layouts for the scalability extensions,
* :mod:`~repro.topology.graph` — declarative, fingerprintable
  :class:`~repro.topology.graph.GraphTopologySpec` for arbitrary
  multi-hop graphs (diamond/ring/star/random families, JSON/CSV
  loaders), convertible to a :class:`Network`,
* :mod:`~repro.topology.routing` — the deterministic
  :class:`~repro.topology.routing.RoutingEngine` (lexicographic
  shortest paths, ECMP enumeration, reachability diagnostics).
"""

from repro.topology.network import Link, Network, NodeKind
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
    graph_spec_from_network,
    load_topology_file,
    random_graph_spec,
    ring_graph_spec,
    star_graph_spec,
)
from repro.topology.routing import RoutingEngine, lexicographic_shortest_path

__all__ = [
    "Network",
    "Link",
    "NodeKind",
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
    "graph_spec_from_network",
    "load_topology_file",
    "RoutingEngine",
    "lexicographic_shortest_path",
]
