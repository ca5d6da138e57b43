"""The routed fixed-point core shared by every multi-hop analysis.

The paper bounds a flow with a per-multiplexer formula.  Extending that
to a multi-hop route means applying a delay rule at every directed
egress port the route crosses and inflating each flow's burst at hop
*k* by the delay it may have accumulated upstream (``b + r * D`` — the
classic time-stopping argument).  Delays depend on bursts, which depend
on delays, so the per-hop bounds are iterated to a fixed point.

This module is the only place that runs that loop.  It routes the flows,
holds their per-hop state, groups them by directed port and iterates;
:class:`~repro.analysis.multihop.GraphPathAnalysis`,
:class:`~repro.core.endtoend.EndToEndAnalysis` and the holistic and
trajectory engines each supply only their per-port delay rule.  A rule
is a pure function of its members' bursts at the port's hop, and
upstream delay accumulates hop by hop as ``(acc + delay) +
propagation``.

**Feed-forward schedule.**  A port ``q`` depends on a port ``p`` when
some flow crosses ``p`` at hop *k* and ``q`` at hop *k + 1*.  When that
graph is acyclic (every star, tree and most meshes), one pass in
topological order reaches the fixed point (Le Boudec & Thiran,
*Network Calculus*, 2001): each port runs once, after every port
upstream of it, and then extends its members' upstream prefix by its
own delay.  :func:`route_template` computes that order once per
template (Kahn's algorithm, lowest port position first, so on a star
the station egress ports run before the switch's, as the pass-by-pass
loop ran them) and stores it as :attr:`RoutedTemplate.schedule`.  The
result is the pass-by-pass loop's, bit for bit: when that loop
converges, each port's last evaluation saw the final upstream values,
and that is the one evaluation the schedule makes.

**Pass-by-pass loop.**  The schedule is ``None`` when the dependency
graph has a cycle (rings can feed their own growth), or when its
longest chain is more than :data:`MAX_ITERATIONS` dependencies deep
(the loop below needs one pass per level plus one, and would give up
first).  Those templates, and every run without a template, iterate:

* a flow has settled only when its upstream values are exactly equal
  between two passes;
* after the first pass the loop re-runs a port only when some member's
  upstream *at that port's hop index* changed in the last accumulation
  (a flow that moved at another hop leaves the port's inputs, and
  therefore its outputs, unchanged);
* after :data:`MAX_ITERATIONS` passes one extra pass runs, and the flows
  still moving are then marked *diverged* (their bursts become
  infinite);
* at most ``len(states) + 1`` further passes, each over every port, let
  those infinities reach every flow sharing a port with a diverged one
  (``inf`` is absorbing, so this terminates), and the fixed point
  reports non-convergence.

A rule that raises an :class:`~repro.errors.AnalysisError` (an
overloaded multiplexer) during a scheduled run is re-run pass by pass
from fresh state, so the error is the one the loop meets first,
whatever the schedule's order.

Every rule reads the same per-port partition, :func:`port_levels`: the
members of each priority level with their inflated bursts and rates,
the bursts and rates of the strictly more urgent members, and the
largest less urgent burst (the non-preemptive blocking term).  Each
port evaluation partitions its members once.  A rule whose engine
composes a final result from the partition (the trajectory segments,
the graph path's backlogs) keeps it on the port as
:attr:`PortContext.levels`, and the composition reads it there instead
of partitioning again: a port's last evaluation saw the final upstream
values, the same argument the schedule rests on.  Only a run that did
not settle can end on an accumulation after some port's last
evaluation, so those compositions partition afresh when
:func:`run_fixed_point` returns ``False``.  Sums over members go through
:func:`math.fsum`, which rounds the exact sum once (Shewchuk's
algorithm), so a bound depends on the set of flows at a port and not on
the order they are listed in, and is the same on every Python version.

Routing happens once per flow set: :func:`route_template` builds a
:class:`RoutedTemplate` (routed flows, hops, propagation, each port's
members as ``(flow position, hop index)`` and the schedule), and every
analysis run instantiates fresh per-hop state from it.  Neither the
policy nor the rule changes a route, so one template serves every
engine and policy of a scenario.  The flows' token-bucket parameters
and priority levels are copied onto the template once; the rules run
once per member pair per port evaluation, so they read those plain
fields instead of going through ``Flow`` → ``Message`` properties and
the priority enum on every access.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Iterable, NamedTuple,
                    Sequence)

from repro.errors import AnalysisError
from repro.flows.flow import Flow
from repro.flows.priorities import PriorityClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.network import Network

__all__ = ["RoutedFlowState", "PortContext", "RoutedTemplate",
           "PortLevel", "route_template", "network_template", "port_levels",
           "port_leftovers", "run_fixed_point", "MAX_ITERATIONS"]

#: Burst-inflation passes before the divergence check.
MAX_ITERATIONS = 16

#: ``(capacity, technology delay, propagation delay)`` of a directed port.
PortAttributes = Callable[[str, str], "tuple[float, float, float]"]


@dataclass
class RoutedFlowState:
    """One routed flow plus the per-hop state of the iteration."""

    flow: Flow
    priority: PriorityClass
    #: The flow's name, token-bucket rate ``r`` (bits per second) and
    #: burst ``b`` (bits), and ``priority.value`` (0 = most urgent):
    #: copies of the frozen flow's values, so the per-port rules read
    #: plain attributes in their inner loops.
    name: str
    rate: float
    burst: float
    level: int
    hops: tuple[tuple[str, str], ...]
    #: Propagation delay of each hop's link.
    propagation: tuple[float, ...]
    #: Sum of bound delays (and propagation) accumulated before each hop.
    upstream: list[float]
    #: Current per-hop delay bound (queuing + relaying, no propagation).
    delays: list[float]
    #: Per-hop by-product of the delay rule (a left-over service, a
    #: multiplexer bound...), or ``None`` where the rule keeps none.
    details: list[Any]
    #: Set when the fixed point failed to settle for this flow; its
    #: bursts (and therefore every bound involving it) become infinite.
    diverged: bool = False


@dataclass(eq=False)
class PortContext:
    """One directed output port and the routed flows crossing it."""

    node: str
    toward: str
    capacity: float
    #: ``t_techno`` of the relaying node.
    technology_delay: float
    #: ``(state, hop index)`` of every flow using this port, in the
    #: order the flows were passed to :func:`route_template`.
    members: tuple[tuple[RoutedFlowState, int], ...]
    #: The :func:`port_levels` of the port's last evaluation, set by the
    #: rules whose final composition reads it; ``None`` until then.
    levels: "list[PortLevel] | None" = None


class _RoutedFlow(NamedTuple):
    """A routed flow's fixed fields, in :class:`RoutedFlowState` order."""

    flow: Flow
    priority: PriorityClass
    name: str
    rate: float
    burst: float
    level: int
    hops: tuple[tuple[str, str], ...]
    propagation: tuple[float, ...]


class _TemplatePort(NamedTuple):
    """A directed port with its members as ``(flow position, hop index)``."""

    node: str
    toward: str
    capacity: float
    technology_delay: float
    members: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RoutedTemplate:
    """The routes of one flow set, grouped by directed port, built once.

    Nothing in it changes during an analysis, so every run over the same
    flows on the same network shares one template and calls
    :meth:`instantiate` for its own per-hop state.
    """

    flows: tuple[_RoutedFlow, ...]
    #: Sorted by ``(node, toward)``.
    ports: tuple[_TemplatePort, ...]
    #: Port positions in feed-forward order, or ``None`` when the ports
    #: must be iterated pass by pass (see the module docstring).
    schedule: tuple[int, ...] | None

    def instantiate(self) -> tuple[list[RoutedFlowState], list[PortContext]]:
        """Fresh states (zero upstream and delays) and their ports."""
        states = [RoutedFlowState(*flow, [0.0] * len(flow.hops),
                                  [0.0] * len(flow.hops),
                                  [None] * len(flow.hops))
                  for flow in self.flows]
        ports = [PortContext(
            node=port.node, toward=port.toward, capacity=port.capacity,
            technology_delay=port.technology_delay,
            members=tuple((states[position], index)
                          for position, index in port.members))
            for port in self.ports]
        return states, ports


def route_template(flows: Iterable, route_flow: Callable[[Any], Flow],
                   port: PortAttributes) -> RoutedTemplate:
    """Route every flow and group the routed hops by directed port.

    ``route_flow`` turns each item into a routed :class:`Flow` and
    ``port`` describes a directed port.  Flows keep the input order;
    ports come back sorted by ``(node, toward)``, with their
    feed-forward schedule.
    """
    membership: dict[tuple[str, str], list[tuple[int, int]]] = {}
    attributes: dict[tuple[str, str], tuple[float, float, float]] = {}
    routed: list[_RoutedFlow] = []
    for position, item in enumerate(flows):
        flow = route_flow(item)
        hops = tuple(flow.hops())
        for index, hop in enumerate(hops):
            if hop not in attributes:
                attributes[hop] = port(*hop)
            membership.setdefault(hop, []).append((position, index))
        routed.append(_RoutedFlow(
            flow=flow, priority=flow.priority, name=flow.name,
            rate=flow.rate, burst=flow.burst, level=flow.priority.value,
            hops=hops,
            propagation=tuple(attributes[hop][2] for hop in hops)))
    keys = sorted(membership)
    positions = {key: position for position, key in enumerate(keys)}
    return RoutedTemplate(
        flows=tuple(routed),
        ports=tuple(_TemplatePort(node, toward,
                                  *attributes[(node, toward)][:2],
                                  tuple(membership[(node, toward)]))
                    for node, toward in keys),
        schedule=_port_schedule(
            [[positions[hop] for hop in flow.hops] for flow in routed],
            len(keys)))


def _port_schedule(paths: list[list[int]], count: int
                   ) -> tuple[int, ...] | None:
    """Feed-forward order of ``count`` ports crossed along ``paths``.

    Kahn's algorithm over "``q`` follows ``p`` on some path", always
    taking the lowest ready position.  ``None`` when the graph has a
    cycle or a chain more than :data:`MAX_ITERATIONS` dependencies deep.
    """
    successors: list[set[int]] = [set() for _ in range(count)]
    for path in paths:
        for here, after in zip(path, path[1:]):
            successors[here].add(after)
    waiting = [0] * count
    for following in successors:
        for after in following:
            waiting[after] += 1
    ready = [position for position in range(count) if not waiting[position]]
    depth = [0] * count
    order = []
    while ready:
        position = heapq.heappop(ready)
        order.append(position)
        for after in successors[position]:
            depth[after] = max(depth[after], depth[position] + 1)
            waiting[after] -= 1
            if not waiting[after]:
                heapq.heappush(ready, after)
    if len(order) < count or max(depth, default=0) > MAX_ITERATIONS:
        return None
    return tuple(order)


def network_template(network: "Network", messages: Iterable
                     ) -> RoutedTemplate:
    """:func:`route_template` over a :class:`Network`, flows in name order.

    Stations relay nothing, so their ports carry no ``t_techno``.
    """
    def port(node: str, toward: str) -> tuple[float, float, float]:
        link = network.link(node, toward)
        technology_delay = (network.technology_delay(node)
                            if network.is_switch(node) else 0.0)
        return link.rate, technology_delay, link.latency

    return route_template(sorted(messages, key=lambda message: message.name),
                          network.route_flow, port)


class PortLevel(NamedTuple):
    """One priority level of one port, at the members' current bursts."""

    #: Positions in ``port.members`` of the level's members.
    positions: list[int]
    #: The level's inflated bursts and rates, one per position.
    bursts: list[float]
    rates: list[float]
    #: Inflated bursts and rates of every strictly more urgent member.
    higher_bursts: list[float]
    higher_rates: list[float]
    #: Largest inflated burst of a less urgent member (0 when none).
    blocking: float


def port_levels(port: PortContext, policy: str) -> list[PortLevel]:
    """Partition a port's members by priority level, most urgent first.

    Under FIFO (``"fcfs"``) every member shares one level, with nothing
    more urgent and no blocking.  Each member's burst is inflated once,
    ``b + r * upstream`` at its hop (``inf`` once the flow diverged or
    its upstream is infinite), and a level's blocking is the largest of
    the per-level maxima below it: bursts are never negative, so that is
    the largest less urgent burst, exactly.
    """
    members = port.members
    inf = math.inf
    bursts = []
    for state, index in members:
        upstream = state.upstream[index]
        bursts.append(inf if state.diverged or upstream == inf
                      else state.burst + state.rate * upstream)
    rates = [state.rate for state, _ in members]
    if policy == "fcfs":
        return [PortLevel(list(range(len(members))), bursts, rates,
                          [], [], 0.0)]
    grouped: dict[int, list[int]] = {}
    for position, (state, _) in enumerate(members):
        grouped.setdefault(state.level, []).append(position)
    own = [grouped[level] for level in sorted(grouped)]
    own_bursts = [[bursts[position] for position in positions]
                  for positions in own]
    blocking = [0.0] * len(own)
    for below in range(len(own) - 1, 0, -1):
        blocking[below - 1] = max(blocking[below], max(own_bursts[below]))
    levels = []
    higher_bursts: list[float] = []
    higher_rates: list[float] = []
    for positions, level_bursts, level_blocking in zip(own, own_bursts,
                                                       blocking):
        level_rates = [rates[position] for position in positions]
        levels.append(PortLevel(positions, level_bursts, level_rates,
                                higher_bursts, higher_rates, level_blocking))
        higher_bursts = higher_bursts + level_bursts
        higher_rates = higher_rates + level_rates
    return levels


def port_leftovers(port: PortContext, levels: list[PortLevel]
                   ) -> list[tuple[float, float, float]]:
    """Calculus left-over ``(rate, latency, delay)`` of every port member.

    For each member, every other flow at the port is cross traffic,
    except that under strict priority a lower-priority flow only blocks
    non-preemptively (its largest burst); the left-over is rate-latency
    with ``R = C - r_cross`` and ``T = (C * t_techno + blocking +
    b_cross) / R``, and the hop delay is ``T + b / R`` for the flow's
    inflated burst ``b`` (``inf`` when the port cannot serve the flow).
    ``levels`` is the port's :func:`port_levels` under the policy.
    Results follow ``port.members``.
    """
    leftovers: list = [None] * len(port.members)
    for level in levels:
        bursts = level.higher_bursts + level.bursts
        rates = level.higher_rates + level.rates
        for own, position in enumerate(level.positions, len(
                level.higher_bursts)):
            burst = bursts[own]
            cross_burst = math.fsum(bursts[:own] + bursts[own + 1:])
            rate = port.capacity - math.fsum(rates[:own] + rates[own + 1:])
            if rate <= 0.0 or math.isinf(cross_burst) or \
                    math.isinf(level.blocking):
                leftovers[position] = (rate, math.inf, math.inf)
                continue
            latency = (port.capacity * port.technology_delay
                       + level.blocking + cross_burst) / rate
            if math.isinf(burst) or rates[own] > rate:
                leftovers[position] = (rate, latency, math.inf)
            else:
                leftovers[position] = (rate, latency, latency + burst / rate)
    return leftovers


def _accumulate(states: Iterable[RoutedFlowState],
                ports_of: dict[int, list[int]]
                ) -> tuple[list[RoutedFlowState], set[int]]:
    """Refresh upstream prefix sums.

    Returns the states whose upstream moved and the positions of the
    ports at whose hop some member's upstream moved.
    """
    moved = []
    dirty: set[int] = set()
    for state in states:
        cumulative = 0.0
        upstream = []
        for delay, propagation in zip(state.delays, state.propagation):
            upstream.append(cumulative)
            cumulative += delay
            cumulative += propagation
        if upstream != state.upstream:
            ports = ports_of[id(state)]
            for index, (new, old) in enumerate(zip(upstream, state.upstream)):
                if new != old:
                    dirty.add(ports[index])
            state.upstream = upstream
            moved.append(state)
    return moved, dirty


def run_fixed_point(states: list[RoutedFlowState],
                    ports: list[PortContext],
                    rule: Callable[[PortContext], None],
                    schedule: Sequence[int] | None = None) -> bool:
    """Apply ``rule`` to the ports and accumulate until settled.

    ``rule`` refreshes ``delays`` (and optionally ``details``) of every
    member of one port from the members' current bursts at that port.
    With a ``schedule`` (the template's, for these ``ports``) every port
    runs once, in that order, and the result is ``True``.  Without one
    the first pass runs every port, later passes only the ports whose
    members' upstream at that hop moved.  Returns ``True`` when every
    flow settled; otherwise the flows still moving are marked diverged
    and their infinite bursts propagated over every port, as the module
    docstring describes.
    """
    if schedule is not None:
        try:
            for position in schedule:
                port = ports[position]
                rule(port)
                for state, index in port.members:
                    upstream = state.upstream
                    if index + 1 < len(upstream):
                        upstream[index + 1] = (upstream[index]
                                               + state.delays[index]) \
                            + state.propagation[index]
            return True
        except AnalysisError:
            # Raise what the pass-by-pass loop would raise first.
            for state in states:
                hops = len(state.hops)
                state.upstream = [0.0] * hops
                state.delays = [0.0] * hops
                state.details = [None] * hops
    # ``{id(state): [position of the port at each hop]}``.
    ports_of = {id(state): [0] * len(state.hops) for state in states}
    for position, port in enumerate(ports):
        for state, index in port.members:
            ports_of[id(state)][index] = position
    pending = ports
    for _ in range(MAX_ITERATIONS + 1):
        for port in pending:
            rule(port)
        moving, dirty = _accumulate(states, ports_of)
        if not moving:
            return True
        pending = [ports[position] for position in sorted(dirty)]
    for state in moving:
        state.diverged = True
    for _ in range(len(states) + 1):
        for port in ports:
            rule(port)
        if not _accumulate(states, ports_of)[0]:
            break
    return False
