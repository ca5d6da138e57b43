"""The network view the simulator and the end-to-end analyses read.

A :class:`Network` is a read-only view of a full-duplex
:class:`~repro.topology.graph.GraphTopologySpec`: **stations** (end
systems, traffic sources/sinks) and **switches** (store-and-forward
relays) joined by links carrying a rate (bits per second) and a
propagation latency (seconds).  Because links are full duplex, each
direction of a link is an independent resource: the analysis and the
simulator both reason about *directed* hops ``(upstream, downstream)``.

Only :meth:`GraphTopologySpec.to_network` builds one, after checking
that the spec is valid, connected and full duplex.  Routes come from
the spec's one :class:`~repro.topology.routing.RoutingEngine`: the
lexicographically smallest shortest path (hop count), so route choice is
deterministic by value even where several shortest paths tie; for the
paper's single-switch star the route is trivially ``station → switch →
station``.  Intermediate hops are always switches — stations never
relay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.errors import InvalidTopologyError
from repro.flows.flow import Flow
from repro.flows.messages import Message
from repro.topology.routing import RoutingEngine

if TYPE_CHECKING:
    from repro.topology.graph import GraphLink, GraphTopologySpec

__all__ = ["Network"]


class Network:
    """A read-only switched-Ethernet view of a full-duplex topology spec.

    Build one with :meth:`~repro.topology.graph.GraphTopologySpec.to_network`.
    """

    def __init__(self, spec: "GraphTopologySpec") -> None:
        #: The topology this network views.
        self.spec = spec
        self.name = spec.name
        #: The engine every route of this network comes from.
        self.routing = RoutingEngine(spec)

    # -- inspection ---------------------------------------------------------

    @property
    def stations(self) -> list[str]:
        """Sorted list of station names."""
        return list(self.spec.end_systems)

    @property
    def switches(self) -> list[str]:
        """Sorted list of switch names."""
        return list(self.spec.switches)

    def is_switch(self, node: str) -> bool:
        """True when ``node`` is a switch."""
        return self.spec.is_switch(node)

    def technology_delay(self, switch: str) -> float:
        """The ``t_techno`` bound of a switch."""
        if not self.is_switch(switch):
            raise InvalidTopologyError(f"{switch!r} is not a switch")
        return self.spec.technology_delay(switch)

    def link(self, node_a: str, node_b: str) -> "GraphLink":
        """The link serving the directed hop ``node_a -> node_b``."""
        return self.spec.edge(node_a, node_b)

    # -- routing -----------------------------------------------------------

    def route(self, source: str, destination: str) -> list[str]:
        """Shortest path (by hop count) from ``source`` to ``destination``.

        Among equal-length paths the lexicographically smallest node
        sequence wins, so the choice is reproducible in every process.
        Intermediate nodes are always switches (stations never relay).

        Raises
        ------
        RoutingError
            If either endpoint is unknown or no path exists.
        """
        return list(self.routing.shortest_path(source, destination))

    def route_flow(self, flow: Flow | Message) -> Flow:
        """Attach a route to a flow (or wrap a message into a routed flow).

        A flow that already carries a path keeps it.
        """
        return self.routing.route_flow(flow)

    def route_flows(self, flows: Iterable[Flow | Message]) -> list[Flow]:
        """Route every flow of an iterable."""
        return self.routing.route_flows(flows)
