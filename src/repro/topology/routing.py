"""Deterministic routing over a topology spec.

The paper's own topologies (star, dual switch, tree) are trees, so
shortest paths are unique and any traversal order yields the same
routes.  On an arbitrary graph (rings, diamonds, meshes) several
shortest paths can tie, and the route choice then has to be
*deterministic by value*: the same spec must produce the same routes in
every process, under every ``PYTHONHASHSEED``, on every platform —
otherwise the simulator, the analysis and the content-addressed result
store disagree about which ports a flow crosses.

The tie-break rule used everywhere is **lexicographic**: among all
minimal-hop paths, pick the one whose node-name sequence is smallest.
:func:`lexicographic_shortest_path` implements it with a backward
breadth-first search (exact hop counts to the destination) followed by a
greedy forward walk that always takes the smallest next hop still on a
shortest path.  :class:`RoutingEngine` is the one place that applies the
rule to a :class:`~repro.topology.graph.GraphTopologySpec`: it runs the
backward search once per destination, keeping every node's next hop
toward it (the greedy walk's choice, found in the same search), walks
those next hops once per (source, destination) pair, and adds ECMP
enumeration plus reachability diagnostics.  A
:class:`~repro.topology.network.Network` routes through the engine of
its spec.

Two structural rules are enforced during the search:

* paths are **simple** (the search never revisits a node), and
* **end systems never relay** — every intermediate node of a route must
  be a switch, as in AFDX / the paper's architecture.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import RoutingError
from repro.flows.flow import Flow
from repro.flows.messages import Message
from repro.topology.graph import GraphLink, GraphTopologySpec

__all__ = ["RoutingEngine",
           "lexicographic_shortest_path", "predecessor_map",
           "shortest_path_dag_costs"]

#: Default cap on the number of equal-cost paths ECMP enumeration returns.
DEFAULT_ECMP_LIMIT = 64


def predecessor_map(nodes: Iterable[str],
                    successors: Mapping[str, Iterable[str]]
                    ) -> dict[str, list[str]]:
    """The reversed adjacency, each list in sorted node order."""
    predecessors: dict[str, list[str]] = defaultdict(list)
    for node in sorted(nodes):
        for successor in successors.get(node, ()):
            predecessors[successor].append(node)
    return predecessors


def shortest_path_dag_costs(nodes: Iterable[str],
                            successors: Mapping[str, Iterable[str]],
                            destination: str,
                            via: Callable[[str], bool] | None = None,
                            predecessors: Mapping[str, Sequence[str]]
                            | None = None,
                            ) -> dict[str, float]:
    """Exact hop count from every node to ``destination``.

    Runs a breadth-first search backward over the reversed graph.
    ``via`` restricts which nodes may appear as *intermediate* hops (the
    destination itself is always allowed); nodes that cannot reach the
    destination are absent from the returned mapping.
    ``predecessors`` may carry the :func:`predecessor_map` of the graph;
    callers computing many destinations build it once.
    """
    if predecessors is None:
        predecessors = predecessor_map(nodes, successors)
    return _backward_search(predecessors, destination, via)[0]


def _backward_search(predecessors: Mapping[str, Sequence[str]],
                     destination: str, via: Callable[[str], bool] | None
                     ) -> tuple[dict[str, float], dict[str, str]]:
    """Hop counts to ``destination`` and the lexicographic next hops.

    A node's next hop is its smallest successor one hop closer that may
    relay (or is the destination): the node the greedy walk of
    :func:`lexicographic_shortest_path` takes from it.  Every such
    successor is expanded before the BFS leaves the node's level, so
    keeping the smallest one seen finds it.
    """
    distances: dict[str, float] = {destination: 0.0}
    next_hops: dict[str, str] = {}
    queue = deque((destination,))
    while queue:
        node = queue.popleft()
        # Relaying through ``node`` is only legal when ``via`` allows it
        # (or when the edge ends the path at the destination itself).
        if node != destination and via is not None and not via(node):
            continue
        distance = distances[node] + 1.0
        for predecessor in predecessors.get(node, ()):
            known = distances.get(predecessor)
            if known is None:
                distances[predecessor] = distance
                next_hops[predecessor] = node
                queue.append(predecessor)
            elif known == distance and node < next_hops[predecessor]:
                next_hops[predecessor] = node
    return distances, next_hops


def lexicographic_shortest_path(nodes: Iterable[str],
                                successors: Mapping[str, Iterable[str]],
                                source: str, destination: str,
                                via: Callable[[str], bool] | None = None,
                                distances: Mapping[str, float] | None = None,
                                ) -> tuple[str, ...]:
    """The lexicographically smallest minimal-hop path.

    ``distances`` may carry a precomputed
    :func:`shortest_path_dag_costs` mapping for ``destination``; callers
    routing many pairs (the engine, forwarding tables) pass their cached
    copy so each route costs one greedy walk, not a fresh search.

    Raises
    ------
    RoutingError
        If no path exists from ``source`` to ``destination``.
    """
    if source == destination:
        return (source,)
    if distances is None:
        distances = shortest_path_dag_costs(nodes, successors, destination,
                                            via=via)
    if source not in distances:
        raise RoutingError(
            f"no path between {source!r} and {destination!r}")
    path = [source]
    node = source
    while node != destination:
        remaining = distances[node]
        candidates = [
            successor for successor in successors.get(node, ())
            if successor in distances
            and distances[successor] + 1.0 == remaining
            and (successor == destination or via is None or via(successor))]
        # The search computed ``remaining`` as one more than the smallest
        # successor count, so at least one candidate matches bit-for-bit.
        node = min(candidates)
        path.append(node)
    return tuple(path)


class RoutingEngine:
    """Deterministic shortest-path and ECMP routing over a graph spec.

    Parameters
    ----------
    spec:
        The topology.  Structural problems (unknown endpoints, duplicate
        links...) are rejected up front via :meth:`GraphTopologySpec.validated`;
        disconnected specs are accepted so the engine can *diagnose* them.

    Every link costs one hop, as in the discrete-event simulator.  Each
    destination's backward search runs once, on first use, and keeps
    the hop counts and every node's next hop toward the destination
    (the lexicographic rule's choice), so a route costs one table
    lookup per hop, once per ``(source, destination)`` pair; repeated
    routes are dictionary lookups.  The spec is frozen, so the caches
    never go stale.
    """

    def __init__(self, spec: GraphTopologySpec) -> None:
        spec.validated(connected=False)
        self.spec = spec
        self._relay_allowed = frozenset(spec.switches).__contains__
        self._successors = spec.successors()
        self._searches: dict[str, tuple[dict[str, float],
                                        dict[str, str]]] = {}
        self._paths: dict[tuple[str, str], tuple[str, ...]] = {}

    # -- routing -----------------------------------------------------------

    @cached_property
    def _predecessors(self) -> dict[str, list[str]]:
        return predecessor_map(self._successors, self._successors)

    def _search(self, destination: str
                ) -> tuple[dict[str, float], dict[str, str]]:
        """Hop counts and next hops toward ``destination``."""
        search = self._searches.get(destination)
        if search is None:
            search = self._searches[destination] = _backward_search(
                self._predecessors, destination, self._relay_allowed)
        return search

    def _distances_to(self, destination: str) -> dict[str, float]:
        """Hop count from every node that can reach ``destination``."""
        return self._search(destination)[0]

    def _check_endpoints(self, source: str, destination: str) -> None:
        for node in (source, destination):
            if not self.spec.has_node(node):
                raise RoutingError(f"unknown node {node!r}")

    def has_route(self, source: str, destination: str) -> bool:
        """True when at least one route exists."""
        self._check_endpoints(source, destination)
        return source == destination \
            or source in self._distances_to(destination)

    def shortest_path(self, source: str, destination: str) -> tuple[str, ...]:
        """The lexicographically smallest minimal-hop route.

        The choice of next hop from a node toward a destination depends
        only on the (node, destination) pair, so routes computed flow by
        flow are automatically consistent with the destination-keyed
        forwarding tables the simulator builds.

        Raises
        ------
        RoutingError
            If either endpoint is unknown or no path exists.
        """
        path = self._paths.get((source, destination))
        if path is None:
            self._check_endpoints(source, destination)
            distances, next_hops = self._search(destination)
            if source != destination and source not in distances:
                raise RoutingError(
                    f"no path between {source!r} and {destination!r}")
            nodes = [source]
            while nodes[-1] != destination:
                nodes.append(next_hops[nodes[-1]])
            path = self._paths[(source, destination)] = tuple(nodes)
        return path

    def ecmp_paths(self, source: str, destination: str,
                   limit: int | None = DEFAULT_ECMP_LIMIT
                   ) -> tuple[tuple[str, ...], ...]:
        """Every minimal-hop route, in lexicographic order.

        Enumerates the shortest-path DAG depth first with sorted
        successor order, so the result (and any truncation at ``limit``)
        is deterministic.  The first entry always equals
        :meth:`shortest_path`.
        """
        self._check_endpoints(source, destination)
        if source == destination:
            return ((source,),)
        distances = self._distances_to(destination)
        successors = self._successors
        if source not in distances:
            raise RoutingError(
                f"no path between {source!r} and {destination!r}")
        paths: list[tuple[str, ...]] = []

        def _walk(node: str, prefix: list[str]) -> None:
            if limit is not None and len(paths) >= limit:
                return
            if node == destination:
                paths.append(tuple(prefix))
                return
            remaining = distances[node]
            for successor in successors.get(node, ()):
                if successor != destination and not self._relay_allowed(
                        successor):
                    continue
                if successor in distances and \
                        distances[successor] + 1.0 == remaining:
                    prefix.append(successor)
                    _walk(successor, prefix)
                    prefix.pop()

        _walk(source, [source])
        return tuple(paths)

    def select_path(self, source: str, destination: str,
                    key: str) -> tuple[str, ...]:
        """Deterministic ECMP selection: hash ``key`` over the tied routes.

        ``key`` is typically a flow name; the SHA-256-based index is the
        same in every process (no ``hash()`` involved).
        """
        import hashlib

        paths = self.ecmp_paths(source, destination)
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return paths[int.from_bytes(digest[:8], "big") % len(paths)]

    def route_flow(self, flow: Flow | Message) -> Flow:
        """Attach the deterministic shortest route to a flow/message."""
        if isinstance(flow, Message):
            return Flow(message=flow, path=self.shortest_path(
                flow.source, flow.destination))
        if flow.path:
            return flow
        return flow.with_path(self.shortest_path(flow.source,
                                                 flow.destination))

    def route_flows(self, flows: Iterable[Flow | Message]) -> list[Flow]:
        """Route every flow of an iterable."""
        return [self.route_flow(flow) for flow in flows]

    # -- diagnostics -------------------------------------------------------

    def diagnostics(self) -> list[str]:
        """Human-readable routing problems (empty when all pairs route).

        Lists every ordered end-system pair without a route, in sorted
        order — the ``repro topology validate`` command prints these.
        """
        problems = []
        end_systems = self.spec.end_systems
        for source in end_systems:
            distances = self._distances_to(source)
            for other in end_systems:
                if other != source and other not in distances:
                    problems.append(
                        f"no route from {other!r} to {source!r}")
        return sorted(problems)

    def edge(self, source: str, target: str) -> GraphLink:
        """The directed link attributes used for ``source -> target``."""
        return self.spec.edge(source, target)
