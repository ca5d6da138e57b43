"""The network topology graph.

A :class:`Network` is an undirected graph of named nodes — **stations**
(traffic sources/sinks) and **switches** (store-and-forward relays) — joined
by full-duplex **links** carrying a capacity (bits per second) and a
propagation delay (seconds).  Because links are full duplex, each direction
of a link is an independent resource: the analysis and the simulator both
reason about *directed* hops ``(upstream, downstream)``.

Routing picks the lexicographically smallest shortest path (hop count),
so route choice is deterministic by value even on cyclic graph
topologies where several shortest paths tie; for the single-switch star
used by the paper the route is trivially ``station → switch → station``.
Intermediate hops are always switches — stations never relay.  Routes
are computed once per destination (a shared
:class:`~repro.topology.routing.DestinationRouter`) and the cache is
dropped whenever a node or link is added.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.errors import InvalidTopologyError, RoutingError
from repro.flows.flow import Flow
from repro.flows.messages import Message
from repro.topology.routing import DestinationRouter

__all__ = ["NodeKind", "Link", "Network"]


class NodeKind(enum.Enum):
    """Role of a node in the topology."""

    STATION = "station"
    SWITCH = "switch"


@dataclass(frozen=True)
class Link:
    """A full-duplex link between two nodes.

    Attributes
    ----------
    node_a / node_b:
        The two endpoints (order is not meaningful; the link is full duplex).
    capacity:
        Rate of each direction, in bits per second.
    propagation_delay:
        One-way propagation delay in seconds (a few microseconds at most on
        an aircraft; defaults to 0).
    """

    node_a: str
    node_b: str
    capacity: float
    propagation_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise InvalidTopologyError(
                f"link {self.node_a!r}-{self.node_b!r}: capacity must be "
                f"positive, got {self.capacity!r}")
        if self.propagation_delay < 0:
            raise InvalidTopologyError(
                f"link {self.node_a!r}-{self.node_b!r}: propagation delay "
                f"must be non-negative")
        if self.node_a == self.node_b:
            raise InvalidTopologyError(
                f"link endpoints must differ, got {self.node_a!r} twice")

    def other(self, node: str) -> str:
        """The endpoint opposite to ``node``."""
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise InvalidTopologyError(
            f"{node!r} is not an endpoint of link "
            f"{self.node_a!r}-{self.node_b!r}")


class Network:
    """A switched-Ethernet topology with typed nodes and attributed links."""

    def __init__(self, name: str = "network") -> None:
        self.name = name
        #: ``{node: {neighbour: link}}``, both in insertion order.
        self._adjacency: dict[str, dict[str, Link]] = {}
        self._kinds: dict[str, NodeKind] = {}
        self._technology_delay: dict[str, float] = {}
        #: Per-destination route cache; ``None`` until the first route
        #: and again after every topology change.
        self._router: DestinationRouter | None = None

    # -- construction -----------------------------------------------------

    def add_station(self, name: str) -> None:
        """Add an end station (traffic source/sink)."""
        self._add_node(name, NodeKind.STATION)

    def add_switch(self, name: str, technology_delay: float = 0.0) -> None:
        """Add a store-and-forward switch.

        ``technology_delay`` is the ``t_techno`` bound on the relaying delay
        of this switch (seconds); it enters every bound computed for flows
        crossing the switch.
        """
        if technology_delay < 0:
            raise InvalidTopologyError(
                f"switch {name!r}: technology delay must be non-negative")
        self._add_node(name, NodeKind.SWITCH)
        self._technology_delay[name] = float(technology_delay)

    def _add_node(self, name: str, kind: NodeKind) -> None:
        if not name:
            raise InvalidTopologyError("node name must not be empty")
        if name in self._kinds:
            raise InvalidTopologyError(f"duplicate node name {name!r}")
        self._adjacency[name] = {}
        self._kinds[name] = kind
        self._router = None

    def add_link(self, node_a: str, node_b: str, capacity: float,
                 propagation_delay: float = 0.0) -> Link:
        """Connect two existing nodes with a full-duplex link."""
        for node in (node_a, node_b):
            if node not in self._kinds:
                raise InvalidTopologyError(f"unknown node {node!r}")
        if node_b in self._adjacency[node_a]:
            raise InvalidTopologyError(
                f"link {node_a!r}-{node_b!r} already exists")
        link = Link(node_a=node_a, node_b=node_b, capacity=capacity,
                    propagation_delay=propagation_delay)
        self._adjacency[node_a][node_b] = link
        self._adjacency[node_b][node_a] = link
        self._router = None
        return link

    # -- inspection ---------------------------------------------------------

    @property
    def stations(self) -> list[str]:
        """Sorted list of station names."""
        return sorted(n for n, k in self._kinds.items()
                      if k is NodeKind.STATION)

    @property
    def switches(self) -> list[str]:
        """Sorted list of switch names."""
        return sorted(n for n, k in self._kinds.items()
                      if k is NodeKind.SWITCH)

    @property
    def nodes(self) -> list[str]:
        """Sorted list of every node name."""
        return sorted(self._kinds)

    def kind(self, node: str) -> NodeKind:
        """The role of ``node``."""
        try:
            return self._kinds[node]
        except KeyError:
            raise InvalidTopologyError(f"unknown node {node!r}") from None

    def is_switch(self, node: str) -> bool:
        """True when ``node`` is a switch."""
        return self.kind(node) is NodeKind.SWITCH

    def technology_delay(self, switch: str) -> float:
        """The ``t_techno`` bound of a switch."""
        if not self.is_switch(switch):
            raise InvalidTopologyError(f"{switch!r} is not a switch")
        return self._technology_delay[switch]

    def link(self, node_a: str, node_b: str) -> Link:
        """The link between two adjacent nodes."""
        link = self._adjacency.get(node_a, {}).get(node_b)
        if link is None:
            raise InvalidTopologyError(
                f"no link between {node_a!r} and {node_b!r}")
        return link

    def links(self) -> list[Link]:
        """Every link in the topology, each once.

        Links come in node insertion order, then neighbour insertion
        order; the simulator builds its transmitters in this order.
        """
        links = []
        visited: set[str] = set()
        for node, neighbours in self._adjacency.items():
            links.extend(link for neighbour, link in neighbours.items()
                         if neighbour not in visited)
            visited.add(node)
        return links

    def neighbors(self, node: str) -> list[str]:
        """Sorted neighbours of ``node``."""
        if node not in self._kinds:
            raise InvalidTopologyError(f"unknown node {node!r}")
        return sorted(self._adjacency[node])

    def degree(self, node: str) -> int:
        """Number of links attached to ``node``."""
        if node not in self._kinds:
            raise InvalidTopologyError(f"unknown node {node!r}")
        return len(self._adjacency[node])

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
        for node in (source, destination):
            if node not in self._kinds:
                raise RoutingError(f"unknown node {node!r}")
        if self._router is None:
            self._router = DestinationRouter(
                {name: sorted(neighbours)
                 for name, neighbours in self._adjacency.items()},
                via=frozenset(self.switches).__contains__)
        return list(self._router.path(source, destination))

    def route_flow(self, flow: Flow | Message) -> Flow:
        """Attach a route to a flow (or wrap a message into a routed flow).

        A flow that already carries a path keeps it.
        """
        if isinstance(flow, Message):
            flow = Flow(message=flow)
        if flow.path:
            return flow
        return flow.with_path(self.route(flow.source, flow.destination))

    def route_flows(self, flows: Iterable[Flow | Message]) -> list[Flow]:
        """Route every flow of an iterable."""
        return [self.route_flow(flow) for flow in flows]

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants of the topology.

        * every station has exactly one link (full-duplex attachment to one
          switch port), as in AFDX / the paper's architecture,
        * the graph is connected,
        * station-to-station direct links are not allowed (traffic must
          cross a switch, otherwise the multiplexer model does not apply).

        Raises
        ------
        InvalidTopologyError
            If any invariant is violated.
        """
        if not self._kinds:
            raise InvalidTopologyError("the topology has no node")
        start = next(iter(self._adjacency))
        reached = {start}
        frontier = [start]
        while frontier:
            for neighbour in self._adjacency[frontier.pop()]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        if len(reached) != len(self._adjacency):
            raise InvalidTopologyError("the topology is not connected")
        for station in self.stations:
            if self.degree(station) != 1:
                raise InvalidTopologyError(
                    f"station {station!r} must have exactly one uplink, "
                    f"has {self.degree(station)}")
            neighbour = self.neighbors(station)[0]
            if not self.is_switch(neighbour):
                raise InvalidTopologyError(
                    f"station {station!r} is directly connected to station "
                    f"{neighbour!r}; stations must attach to switches")

    def access_switch(self, station: str) -> str:
        """The switch a station is attached to (after :meth:`validate`)."""
        neighbours = self.neighbors(station)
        if len(neighbours) != 1 or not self.is_switch(neighbours[0]):
            raise InvalidTopologyError(
                f"station {station!r} is not attached to exactly one switch")
        return neighbours[0]
