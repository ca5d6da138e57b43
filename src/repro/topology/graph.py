"""The topology model: declarative, fingerprintable graph specs.

A :class:`GraphTopologySpec` is the one description of a switched
network: a directed graph of typed nodes (**end systems** and
**switches**) joined by attributed links (rate in bits per second,
propagation latency in seconds, optional port numbers).  The spec is a
frozen dataclass of scalars and tuples, so the content-addressed result
store can fingerprint it directly (``repro.store.fingerprint``) and two
processes always agree on what a scenario means.

Specs come from three places:

* **files** — a JSON document (:meth:`GraphTopologySpec.from_json_file`)
  or a wcdTool-style CSV of ``ES`` / ``SW`` / ``LINK`` rows
  (:meth:`GraphTopologySpec.from_csv_file`); ``repro topology validate``
  lints either format,
* **family builders** — :func:`diamond_graph_spec`,
  :func:`ring_graph_spec`, :func:`star_graph_spec` and the seeded
  :func:`random_graph_spec`, used by the campaign registry and the fuzz
  generator,
* **the paper's shapes** — :mod:`repro.topology.builders` (star, dual
  switch, tree) build specs too.

:meth:`GraphTopologySpec.problems` returns *every* structural diagnostic
(unknown endpoints, duplicate links, port clashes, end systems that
relay, unreachable end-system pairs...);
:meth:`GraphTopologySpec.validated` turns the first one into an
:class:`~repro.errors.InvalidTopologyError`.  Both are computed once per
spec.  A valid, connected spec whose links are full duplex is viewed as
a :class:`~repro.topology.network.Network` via
:meth:`GraphTopologySpec.to_network`, which the discrete-event simulator
and the end-to-end analyses consume.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro import units
from repro.errors import ConfigurationError, InvalidTopologyError

if TYPE_CHECKING:
    from repro.topology.network import Network

__all__ = [
    "GraphNode", "GraphLink", "GraphTopologySpec",
    "diamond_graph_spec", "ring_graph_spec", "star_graph_spec",
    "random_graph_spec", "load_topology_file",
]

#: Node roles a spec may declare.
NODE_KINDS = ("end-system", "switch")

#: Default relaying-latency bound of a switch (matches the builders).
DEFAULT_TECHNOLOGY_DELAY = units.us(16)

#: Default link rate of the family builders (the paper's 10 Mbps).
DEFAULT_CAPACITY = units.mbps(10)


def _station_name(index: int) -> str:
    """End systems are named like the workload generator's stations."""
    return f"station-{index:02d}"


@dataclass(frozen=True)
class GraphNode:
    """One typed node of a graph topology."""

    #: Unique node name.
    name: str
    #: ``"end-system"`` (traffic source/sink) or ``"switch"`` (relay).
    kind: str
    #: ``t_techno`` bound on the relaying delay (seconds, switches only).
    technology_delay: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidTopologyError("node name must not be empty")
        if self.kind not in NODE_KINDS:
            raise InvalidTopologyError(
                f"node {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {NODE_KINDS}")
        if not math.isfinite(self.technology_delay) \
                or self.technology_delay < 0:
            raise InvalidTopologyError(
                f"node {self.name!r}: technology delay must be finite and "
                f"non-negative, got {self.technology_delay!r}")
        if self.kind == "end-system" and self.technology_delay != 0.0:
            raise InvalidTopologyError(
                f"end system {self.name!r} must not declare a technology "
                f"delay (it does not relay)")


@dataclass(frozen=True)
class GraphLink:
    """One attributed link of a graph topology.

    A link is full duplex by default (both directions exist with the
    same attributes); declare ``directed=True`` to describe a single
    direction — :meth:`GraphTopologySpec.to_network` then requires the
    reverse direction to be declared too, with matching attributes.
    Rate and latency must be finite numbers.
    """

    #: Upstream endpoint.
    source: str
    #: Downstream endpoint.
    target: str
    #: Rate of each direction, in bits per second.
    rate: float = DEFAULT_CAPACITY
    #: One-way propagation latency in seconds.
    latency: float = 0.0
    #: Optional port number on the source node.
    source_port: int | None = None
    #: Optional port number on the target node.
    target_port: int | None = None
    #: True when only the ``source -> target`` direction exists.
    directed: bool = False

    def __post_init__(self) -> None:
        for endpoint in (self.source, self.target):
            if not endpoint:
                raise InvalidTopologyError("link endpoint must not be empty")
        if self.source == self.target:
            raise InvalidTopologyError(
                f"cyclic link: {self.source!r} connects to itself")
        if not math.isfinite(self.rate) or self.rate <= 0:
            raise InvalidTopologyError(
                f"link {self.source!r}->{self.target!r}: rate must be "
                f"finite and positive, got {self.rate!r}")
        if not math.isfinite(self.latency) or self.latency < 0:
            raise InvalidTopologyError(
                f"link {self.source!r}->{self.target!r}: latency must be "
                f"finite and non-negative, got {self.latency!r}")
        for port in (self.source_port, self.target_port):
            if port is not None and port < 0:
                raise InvalidTopologyError(
                    f"link {self.source!r}->{self.target!r}: port numbers "
                    f"must be non-negative")

    @property
    def directions(self) -> tuple[tuple[str, str], ...]:
        """The directed edges the link declares (one, or both ways)."""
        if self.directed:
            return ((self.source, self.target),)
        return ((self.source, self.target), (self.target, self.source))


@dataclass(frozen=True)
class GraphTopologySpec:
    """A declarative multi-hop topology (typed nodes + attributed links)."""

    #: Topology name (becomes the :class:`Network` name on conversion).
    name: str = "graph"
    #: Every node, in declaration order.
    nodes: tuple[GraphNode, ...] = field(default_factory=tuple)
    #: Every link, in declaration order.
    links: tuple[GraphLink, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidTopologyError("topology name must not be empty")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "links", tuple(self.links))

    # -- lookups -----------------------------------------------------------

    @cached_property
    def _node_map(self) -> dict[str, GraphNode]:
        mapping: dict[str, GraphNode] = {}
        for node in self.nodes:
            mapping.setdefault(node.name, node)
        return mapping

    @cached_property
    def _edge_map(self) -> dict[tuple[str, str], GraphLink]:
        mapping: dict[tuple[str, str], GraphLink] = {}
        for link in self.links:
            for direction in link.directions:
                mapping.setdefault(direction, link)
        return mapping

    def node(self, name: str) -> GraphNode:
        """The node named ``name``."""
        try:
            return self._node_map[name]
        except KeyError:
            raise InvalidTopologyError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        """True when a node of that name is declared."""
        return name in self._node_map

    @cached_property
    def end_systems(self) -> tuple[str, ...]:
        """Sorted end-system names."""
        return tuple(sorted(n.name for n in self.nodes
                            if n.kind == "end-system"))

    @cached_property
    def switches(self) -> tuple[str, ...]:
        """Sorted switch names."""
        return tuple(sorted(n.name for n in self.nodes
                            if n.kind == "switch"))

    def is_switch(self, name: str) -> bool:
        """True when ``name`` is a switch."""
        return self.node(name).kind == "switch"

    def technology_delay(self, name: str) -> float:
        """The relaying-latency bound of a node (0 for end systems)."""
        return self.node(name).technology_delay

    def successors(self) -> dict[str, tuple[str, ...]]:
        """Sorted successor names of every node (directed adjacency).

        Computed once per spec; each call returns a fresh copy.
        """
        return dict(self._successors)

    @cached_property
    def _successors(self) -> dict[str, tuple[str, ...]]:
        successors: dict[str, list[str]] = {n.name: [] for n in self.nodes}
        for (source, target) in self._edge_map:
            if source in successors:
                successors[source].append(target)
        return {name: tuple(sorted(targets))
                for name, targets in successors.items()}

    def edge(self, source: str, target: str) -> GraphLink:
        """The link attributes of the directed edge ``source -> target``."""
        try:
            return self._edge_map[(source, target)]
        except KeyError:
            raise InvalidTopologyError(
                f"no link from {source!r} to {target!r}") from None

    # -- diagnostics -------------------------------------------------------

    def problems(self, connected: bool = True) -> tuple[str, ...]:
        """Every structural diagnostic, in a deterministic order.

        With ``connected=True`` (the default) unreachable ordered
        end-system pairs are reported too; pass ``False`` to check only
        the local structure (the routing engine diagnoses reachability
        itself).  Each pass runs once per spec; later calls return the
        same diagnostics.
        """
        issues = self._local_problems
        if connected and not issues:
            return self._reachability_problems
        return issues

    @cached_property
    def _local_problems(self) -> tuple[str, ...]:
        """Diagnostics of names, links, ports and end-system attachment."""
        issues: list[str] = []
        seen_nodes: set[str] = set()
        for node in self.nodes:
            if node.name in seen_nodes:
                issues.append(f"duplicate node {node.name!r}")
            seen_nodes.add(node.name)
        if not self.end_systems:
            issues.append("the topology has no end system")
        if not self.switches:
            issues.append("the topology has no switch")

        node_map = self._node_map
        endpoints_ok = True
        seen_edges: set[tuple[str, str]] = set()
        port_use: dict[tuple[str, int], int] = defaultdict(int)
        for link in self.links:
            source, target = link.source, link.target
            if source not in node_map or target not in node_map:
                for endpoint in (source, target):
                    if endpoint not in node_map:
                        issues.append(f"link {source!r}->{target!r}: "
                                      f"unknown node {endpoint!r}")
                endpoints_ok = False
            for direction in link.directions:
                if direction in seen_edges:
                    issues.append(f"duplicate link "
                                  f"{direction[0]!r}->{direction[1]!r}")
                seen_edges.add(direction)
            if link.source_port is not None:
                port_use[(source, link.source_port)] += 1
            if link.target_port is not None:
                port_use[(target, link.target_port)] += 1
        for (node, port), count in sorted(port_use.items()):
            if count > 1:
                issues.append(f"port {port} of {node!r} is used by "
                              f"{count} links")

        if not endpoints_ok:
            return tuple(issues)

        successors = self._successors
        incoming: dict[str, list[str]] = {name: []
                                          for name in self.end_systems}
        for source, target in self._edge_map:
            if target in incoming:
                incoming[target].append(source)
        for name, sources in incoming.items():
            outgoing = successors[name]
            if len(outgoing) != 1 or len(sources) != 1:
                issues.append(
                    f"end system {name!r} must have exactly one uplink "
                    f"and one downlink, has {len(outgoing)} out / "
                    f"{len(sources)} in")
                continue
            for neighbour in dict.fromkeys(outgoing + tuple(sources)):
                if node_map[neighbour].kind != "switch":
                    issues.append(
                        f"end system {name!r} attaches to end system "
                        f"{neighbour!r}; end systems must attach to "
                        f"switches")
        return tuple(issues)

    @cached_property
    def _connected(self) -> bool:
        """True when one search from the first node reaches every node.

        Searches along successors, so it decides connectivity only when
        every edge has its reverse: callers check full duplex first.
        """
        if not self.nodes:
            return False
        successors = self._successors
        start = self.nodes[0].name
        reached = {start}
        frontier = [start]
        while frontier:
            for neighbour in successors[frontier.pop()]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        return len(reached) == len(self._node_map)

    @cached_property
    def _reachability_problems(self) -> tuple[str, ...]:
        """``"disconnected: ..."`` diagnostics for unroutable ES pairs.

        Run only after the local checks pass.  When every link is full
        duplex and the graph is connected, every end-system pair routes:
        an end system has one link, to a switch, so it never sits inside
        a path.  Otherwise one search per end system lists the pairs.
        """
        if not any(link.directed for link in self.links) \
                and self._connected:
            return ()
        problems = []
        successors = self._successors
        end_systems = self.end_systems
        for source in end_systems:
            reached = {source}
            frontier = [source]
            while frontier:
                node = frontier.pop()
                # End systems never relay: only expand the source itself
                # and switches.
                if node != source and not self.is_switch(node):
                    continue
                for target in successors.get(node, ()):
                    if target not in reached:
                        reached.add(target)
                        frontier.append(target)
            for destination in end_systems:
                if destination != source and destination not in reached:
                    problems.append(f"disconnected: no route from "
                                    f"{source!r} to {destination!r}")
        return tuple(sorted(problems))

    def validated(self, connected: bool = True) -> "GraphTopologySpec":
        """Return ``self`` or raise on the first structural problem."""
        problems = self.problems(connected=connected)
        if problems:
            suffix = "" if len(problems) == 1 \
                else f" (and {len(problems) - 1} more problems)"
            raise InvalidTopologyError(problems[0] + suffix)
        return self

    # -- conversion --------------------------------------------------------

    def to_network(self) -> "Network":
        """The read-only :class:`~repro.topology.network.Network` view.

        Requires a structurally valid, connected spec whose links are
        full duplex: either declared undirected, or declared as two
        directed links with identical rate and latency.  The simulator
        and the end-to-end analyses consume the result.
        """
        from repro.topology.network import Network

        self.validated()
        pending: dict[tuple[str, str], GraphLink] = {}
        for link in self.links:
            if not link.directed:
                continue
            reverse = pending.pop((link.target, link.source), None)
            if reverse is None:
                pending[(link.source, link.target)] = link
            elif (reverse.rate, reverse.latency) != (link.rate,
                                                     link.latency):
                raise InvalidTopologyError(
                    f"directed links {link.source!r}->{link.target!r} and "
                    f"{link.target!r}->{link.source!r} disagree on rate or "
                    f"latency; cannot form a full-duplex link")
        if pending:
            source, target = sorted(pending)[0]
            raise InvalidTopologyError(
                f"directed link {source!r}->{target!r} has no reverse "
                f"direction; the network model needs full-duplex links")
        if not self._connected:
            raise InvalidTopologyError("the topology is not connected")
        return Network(self)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (human units: Mbps rates, µs latencies)."""
        nodes = []
        for node in self.nodes:
            entry: dict[str, Any] = {"name": node.name, "kind": node.kind}
            if node.technology_delay:
                entry["technology_delay_us"] = node.technology_delay / \
                    units.us(1)
            nodes.append(entry)
        links = []
        for link in self.links:
            entry = {"source": link.source, "target": link.target,
                     "rate_mbps": link.rate / units.mbps(1)}
            if link.latency:
                entry["latency_us"] = link.latency / units.us(1)
            if link.source_port is not None:
                entry["source_port"] = link.source_port
            if link.target_port is not None:
                entry["target_port"] = link.target_port
            if link.directed:
                entry["directed"] = True
            links.append(entry)
        return {"name": self.name, "nodes": nodes, "links": links}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GraphTopologySpec":
        """Parse the :meth:`to_dict` form, rejecting unknown keys."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                "topology document must be a JSON object")
        unknown = set(payload) - {"name", "nodes", "links"}
        if unknown:
            raise ConfigurationError(
                f"topology document has unknown keys: "
                f"{', '.join(sorted(unknown))}")
        nodes = []
        for index, entry in enumerate(_entries(payload, "nodes")):
            nodes.append(GraphNode(
                name=_text(entry, "name", f"nodes[{index}]"),
                kind=_text(entry, "kind", f"nodes[{index}]"),
                technology_delay=units.us(_number(
                    entry, "technology_delay_us", f"nodes[{index}]", 0.0))))
            _reject_unknown(entry, {"name", "kind", "technology_delay_us"},
                            f"nodes[{index}]")
        links = []
        for index, entry in enumerate(_entries(payload, "links")):
            links.append(GraphLink(
                source=_text(entry, "source", f"links[{index}]"),
                target=_text(entry, "target", f"links[{index}]"),
                rate=units.mbps(_number(
                    entry, "rate_mbps", f"links[{index}]",
                    DEFAULT_CAPACITY / units.mbps(1))),
                latency=units.us(_number(
                    entry, "latency_us", f"links[{index}]", 0.0)),
                source_port=_port(entry, "source_port", f"links[{index}]"),
                target_port=_port(entry, "target_port", f"links[{index}]"),
                directed=_flag(entry, "directed", f"links[{index}]")))
            _reject_unknown(
                entry, {"source", "target", "rate_mbps", "latency_us",
                        "source_port", "target_port", "directed"},
                f"links[{index}]")
        name = payload.get("name", "graph")
        if not isinstance(name, str) or not name:
            raise ConfigurationError("topology name must be a non-empty "
                                     "string")
        return cls(name=name, nodes=tuple(nodes), links=tuple(links))

    @classmethod
    def from_json_file(cls, path: str | Path) -> "GraphTopologySpec":
        """Load a JSON topology document."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigurationError(
                f"{path}: not a valid JSON document ({exc})") from None
        return cls.from_dict(payload)

    @classmethod
    def from_csv_file(cls, path: str | Path) -> "GraphTopologySpec":
        """Load a wcdTool-style CSV topology.

        Rows (case-insensitive first column, ``#`` starts a comment)::

            ES,<name>
            SW,<name>[,<technology_delay_us>]
            LINK,<id>,<source>,<source_port>,<target>,<target_port>
                 [,<rate_mbps>[,<latency_us>]]
        """
        path = Path(path)
        nodes: list[GraphNode] = []
        links: list[GraphLink] = []
        with open(path, newline="", encoding="utf-8") as handle:
            for row_number, row in enumerate(csv.reader(handle), start=1):
                fields = [field.strip() for field in row]
                if not fields or not fields[0] or \
                        fields[0].startswith("#"):
                    continue
                kind = fields[0].lower()
                where = f"{path}:{row_number}"
                try:
                    if kind == "es":
                        nodes.append(GraphNode(_field(fields, 1, where),
                                               "end-system"))
                    elif kind == "sw":
                        delay = units.us(float(fields[2])) if \
                            len(fields) > 2 and fields[2] else \
                            DEFAULT_TECHNOLOGY_DELAY
                        nodes.append(GraphNode(_field(fields, 1, where),
                                               "switch",
                                               technology_delay=delay))
                    elif kind == "link":
                        rate = units.mbps(float(fields[6])) if \
                            len(fields) > 6 and fields[6] else \
                            DEFAULT_CAPACITY
                        latency = units.us(float(fields[7])) if \
                            len(fields) > 7 and fields[7] else 0.0
                        links.append(GraphLink(
                            source=_field(fields, 2, where),
                            target=_field(fields, 4, where),
                            rate=rate, latency=latency,
                            source_port=int(_field(fields, 3, where)),
                            target_port=int(_field(fields, 5, where))))
                    else:
                        raise ConfigurationError(
                            f"{where}: unknown row type {fields[0]!r}; "
                            f"expected ES, SW or LINK")
                except (ValueError, IndexError) as exc:
                    raise ConfigurationError(
                        f"{where}: malformed row ({exc})") from None
        return cls(name=path.stem, nodes=tuple(nodes), links=tuple(links))


def load_topology_file(path: str | Path) -> GraphTopologySpec:
    """Load a topology spec, dispatching on the file extension."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return GraphTopologySpec.from_json_file(path)
    if path.suffix.lower() == ".csv":
        return GraphTopologySpec.from_csv_file(path)
    raise ConfigurationError(
        f"{path}: unknown topology format {path.suffix!r}; expected "
        f".json or .csv")


# -- parsing helpers -------------------------------------------------------


def _reject_unknown(entry: Mapping[str, Any], allowed: set[str],
                    where: str) -> None:
    unknown = set(entry) - allowed
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown keys: {', '.join(sorted(unknown))}")


def _entries(payload: Mapping[str, Any], key: str) -> list[Mapping[str, Any]]:
    value = payload.get(key)
    if not isinstance(value, list):
        raise ConfigurationError(
            f"topology document needs a {key!r} list")
    for index, entry in enumerate(value):
        if not isinstance(entry, Mapping):
            raise ConfigurationError(
                f"{key}[{index}] must be an object")
    return value


def _text(entry: Mapping[str, Any], key: str, where: str) -> str:
    value = entry.get(key)
    if not isinstance(value, str) or not value:
        raise ConfigurationError(
            f"{where}: {key!r} must be a non-empty string")
    return value


def _number(entry: Mapping[str, Any], key: str, where: str,
            default: float) -> float:
    value = entry.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where}: {key!r} must be a number")
    return float(value)


def _flag(entry: Mapping[str, Any], key: str, where: str) -> bool:
    value = entry.get(key, False)
    if not isinstance(value, bool):
        raise ConfigurationError(f"{where}: {key!r} must be true or false")
    return value


def _port(entry: Mapping[str, Any], key: str, where: str) -> int | None:
    value = entry.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{where}: {key!r} must be an integer")
    return value


def _field(fields: list[str], index: int, where: str) -> str:
    if index >= len(fields) or not fields[index]:
        raise ConfigurationError(f"{where}: missing field {index}")
    return fields[index]


# -- family builders -------------------------------------------------------


def star_graph_spec(station_count: int,
                    capacity: float = DEFAULT_CAPACITY,
                    technology_delay: float = DEFAULT_TECHNOLOGY_DELAY,
                    switch_name: str = "switch-0",
                    name: str = "graph-star") -> GraphTopologySpec:
    """The paper's single-switch star, as a graph spec.

    Value-identical to :func:`repro.topology.builders.single_switch_star`
    after :meth:`GraphTopologySpec.to_network` — the golden equivalence
    tests pin this down.
    """
    if station_count < 2:
        raise InvalidTopologyError(
            f"a star needs at least 2 stations, got {station_count}")
    nodes = [GraphNode(switch_name, "switch",
                       technology_delay=technology_delay)]
    links = []
    for index in range(station_count):
        station = _station_name(index)
        nodes.append(GraphNode(station, "end-system"))
        links.append(GraphLink(station, switch_name, rate=capacity))
    return GraphTopologySpec(name=name, nodes=tuple(nodes),
                             links=tuple(links))


def diamond_graph_spec(station_count: int,
                       capacity: float = DEFAULT_CAPACITY,
                       technology_delay: float = DEFAULT_TECHNOLOGY_DELAY,
                       name: str = "graph-diamond") -> GraphTopologySpec:
    """Four switches in a diamond — the canonical ECMP tie.

    ``sw-a`` and ``sw-d`` are the access switches (stations split evenly
    between them); two equal-cost two-hop routes ``sw-a -> sw-b -> sw-d``
    and ``sw-a -> sw-c -> sw-d`` join them, so the deterministic
    lexicographic tie-break (via ``sw-b``) is observable.
    """
    if station_count < 2:
        raise InvalidTopologyError(
            f"a diamond needs at least 2 stations, got {station_count}")
    nodes = [GraphNode(f"sw-{letter}", "switch",
                       technology_delay=technology_delay)
             for letter in "abcd"]
    links = [GraphLink("sw-a", "sw-b", rate=capacity),
             GraphLink("sw-a", "sw-c", rate=capacity),
             GraphLink("sw-b", "sw-d", rate=capacity),
             GraphLink("sw-c", "sw-d", rate=capacity)]
    left = (station_count + 1) // 2
    for index in range(station_count):
        station = _station_name(index)
        access = "sw-a" if index < left else "sw-d"
        nodes.append(GraphNode(station, "end-system"))
        links.append(GraphLink(station, access, rate=capacity))
    return GraphTopologySpec(name=name, nodes=tuple(nodes),
                             links=tuple(links))


def ring_graph_spec(station_count: int, switch_count: int = 4,
                    capacity: float = DEFAULT_CAPACITY,
                    technology_delay: float = DEFAULT_TECHNOLOGY_DELAY,
                    name: str = "graph-ring") -> GraphTopologySpec:
    """``switch_count`` switches in a cycle, stations round-robin.

    The ring is the cyclic-dependency stress case for the fixed-point
    burst propagation: routes wrap both ways around the cycle.
    """
    if switch_count < 3:
        raise InvalidTopologyError(
            f"a ring needs at least 3 switches, got {switch_count}")
    if station_count < 2:
        raise InvalidTopologyError(
            f"a ring needs at least 2 stations, got {station_count}")
    nodes = [GraphNode(f"sw-{index}", "switch",
                       technology_delay=technology_delay)
             for index in range(switch_count)]
    links = [GraphLink(f"sw-{index}", f"sw-{(index + 1) % switch_count}",
                       rate=capacity)
             for index in range(switch_count)]
    for index in range(station_count):
        station = _station_name(index)
        nodes.append(GraphNode(station, "end-system"))
        links.append(GraphLink(station, f"sw-{index % switch_count}",
                               rate=capacity))
    return GraphTopologySpec(name=name, nodes=tuple(nodes),
                             links=tuple(links))


def random_graph_spec(station_count: int, switch_count: int = 4,
                      extra_links: int = 2, seed: int = 0,
                      capacity: float = DEFAULT_CAPACITY,
                      technology_delay: float = DEFAULT_TECHNOLOGY_DELAY,
                      name: str | None = None) -> GraphTopologySpec:
    """A seeded random switch fabric with randomly attached stations.

    A random spanning tree over the switches guarantees connectivity;
    ``extra_links`` additional switch-switch links (when placeable) add
    cycles and route diversity.  Everything derives from
    ``random.Random(seed)``, so equal parameters give equal specs in
    every process.
    """
    if switch_count < 1:
        raise InvalidTopologyError(
            f"a random graph needs at least 1 switch, got {switch_count}")
    if station_count < 2:
        raise InvalidTopologyError(
            f"a random graph needs at least 2 stations, "
            f"got {station_count}")
    rng = random.Random(int(seed))
    nodes = [GraphNode(f"sw-{index}", "switch",
                       technology_delay=technology_delay)
             for index in range(switch_count)]
    links = []
    fabric: set[tuple[int, int]] = set()
    for index in range(1, switch_count):
        parent = rng.randrange(index)
        fabric.add((parent, index))
        links.append(GraphLink(f"sw-{parent}", f"sw-{index}",
                               rate=capacity))
    added = 0
    for _attempt in range(8 * extra_links + 8):
        if added >= extra_links:
            break
        first = rng.randrange(switch_count)
        second = rng.randrange(switch_count)
        pair = (min(first, second), max(first, second))
        if first == second or pair in fabric:
            continue
        fabric.add(pair)
        links.append(GraphLink(f"sw-{pair[0]}", f"sw-{pair[1]}",
                               rate=capacity))
        added += 1
    for index in range(station_count):
        station = _station_name(index)
        access = rng.randrange(switch_count)
        nodes.append(GraphNode(station, "end-system"))
        links.append(GraphLink(station, f"sw-{access}", rate=capacity))
    return GraphTopologySpec(
        name=name or f"graph-random-{int(seed)}",
        nodes=tuple(nodes), links=tuple(links))
