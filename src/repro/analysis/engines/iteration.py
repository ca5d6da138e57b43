"""The routed fixed-point core shared by every multi-hop analysis.

The paper bounds a flow with a per-multiplexer formula.  Extending that
to a multi-hop route means applying a delay rule at every directed
egress port the route crosses and inflating each flow's burst at hop
*k* by the delay it may have accumulated upstream (``b + r * D`` — the
classic time-stopping argument).  Delays depend on bursts, which depend
on delays, so the per-hop bounds are iterated to a fixed point.

This module is the only place that runs that loop.  It routes the flows,
holds their per-hop state, groups them by directed port and iterates;
:class:`~repro.core.endtoend.EndToEndAnalysis` (the one network-calculus
composition) and the holistic and trajectory engines each supply only
their per-port delay rule.  A rule is a pure function of its members'
bursts at the port's hop, and upstream delay accumulates hop by hop as
``(acc + delay) + propagation``.

**Slots.**  A *slot* is one (flow, hop) pair.  Each flow's slots are
contiguous, in hop order, and flows keep the order they were routed
in, so ``slot + 1`` is a flow's next hop unless ``slot`` is its last.
:func:`route_template` routes a flow set once into a
:class:`RoutedTemplate`: the fixed data of every slot (its port, the
flow's token-bucket rate and burst and priority level, the link's
propagation) in flat per-slot tuples, each port's members as slots,
and the feed-forward schedule.  Every analysis run calls
:meth:`RoutedTemplate.instantiate` for its own :class:`RoutedRun`: fresh
per-slot ``upstream``, ``delays`` and ``details`` lists, a per-flow
``diverged`` list and a per-port ``partitions`` list, and no object per
flow or per port.  Neither the policy nor the rule changes a route, so
one template serves every engine and policy of a scenario.  The
template groups flows by ``(source, destination)`` and asks the routing
engine once per distinct pair.

**Feed-forward schedule.**  A port ``q`` depends on a port ``p`` when
some flow crosses ``p`` at hop *k* and ``q`` at hop *k + 1*.  When that
graph is acyclic (every star, tree and most meshes), one pass in
topological order reaches the fixed point (Le Boudec & Thiran,
*Network Calculus*, 2001): each port runs once, after every port
upstream of it, and then extends its members' upstream prefix by its
own delay, in place at ``slot + 1``.  :func:`route_template` computes
that order once per template (Kahn's algorithm, lowest port position
first, so on a star the station egress ports run before the switch's,
as the pass-by-pass loop ran them) and stores it as
:attr:`RoutedTemplate.schedule`.  The result is the pass-by-pass loop's,
bit for bit: when that loop converges, each port's last evaluation saw
the final upstream values, and that is the one evaluation the schedule
makes.

**Pass-by-pass loop.**  The schedule is ``None`` when the dependency
graph has a cycle (rings can feed their own growth), or when its
longest chain is more than :data:`MAX_ITERATIONS` dependencies deep
(the loop below needs one pass per level plus one, and would give up
first).  Those templates, and every run given no schedule, iterate:

* a flow has settled only when its upstream values are exactly equal
  between two passes;
* after the first pass the loop re-runs a port only when some member's
  upstream *at that port's slot* changed in the last accumulation (a
  flow that moved at another hop leaves the port's inputs, and
  therefore its outputs, unchanged);
* after :data:`MAX_ITERATIONS` passes one extra pass runs, and the flows
  still moving are then marked *diverged* (their bursts become
  infinite);
* at most ``flow count + 1`` further passes, each over every port, let
  those infinities reach every flow sharing a port with a diverged one
  (``inf`` is absorbing, so this terminates), and the fixed point
  reports non-convergence.

No rule raises on overload: a port that cannot serve a flow gives it an
infinite delay, and the infinity travels downstream in its burst, so
one overloaded port never stops the bounding of the rest.

Every rule reads the same per-port partition, :func:`port_levels`: the
members of each priority level with their inflated bursts and rates,
the bursts and rates of the strictly more urgent members, and the
largest less urgent burst (the non-preemptive blocking term).  Each
port evaluation partitions its members once, and the rule returns that
partition; :func:`run_fixed_point` keeps it in the run's
``partitions``.  A composition that reads the partition after the fixed
point (the trajectory segments, the calculus backlogs) reads it there
instead of partitioning again: a port's last evaluation saw the final
upstream values, the same argument the schedule rests on.  Only a run
that did not settle can end on an accumulation after some port's last
evaluation, so those compositions partition afresh when
:func:`run_fixed_point` returns ``False``.  Sums over members go through
:func:`math.fsum`, which rounds the exact sum once (Shewchuk's
algorithm), so a bound depends on the set of flows at a port and not on
the order they are listed in, and is the same on every Python version.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Iterable, NamedTuple,
                    Sequence)

from repro.errors import InvalidFlowError
from repro.flows.flow import Flow
from repro.flows.messages import Message
from repro.flows.priorities import PriorityClass, assign_priority

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.network import Network

__all__ = ["RoutedPort", "RoutedRun", "RoutedTemplate", "PortLevel",
           "route_template", "network_port", "network_template",
           "port_levels", "port_leftovers", "run_fixed_point",
           "MAX_ITERATIONS"]

#: Burst-inflation passes before the divergence check.
MAX_ITERATIONS = 16

#: ``(capacity, technology delay, propagation delay)`` of a directed port.
PortAttributes = Callable[[str, str], "tuple[float, float, float]"]


class RoutedPort(NamedTuple):
    """A directed output port and the slots of the flows crossing it."""

    node: str
    toward: str
    capacity: float
    #: ``t_techno`` of the relaying node.
    technology_delay: float
    #: The slot of every flow crossing the port, in flow order.
    members: tuple[int, ...]
    #: The members whose flow goes on past the port (to ``slot + 1``).
    onward: tuple[int, ...]


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


class RoutedRun(NamedTuple):
    """The state of one fixed-point run over a :class:`RoutedTemplate`."""

    #: Per slot: bound delays (and propagation) accumulated before it.
    upstream: list[float]
    #: Per slot: delay bound (queuing + relaying, no propagation).
    delays: list[float]
    #: Per slot: by-product of the delay rule (a multiplexer bound...),
    #: or ``None`` where the rule keeps none.
    details: list[Any]
    #: Per flow: set when the fixed point failed to settle for the flow;
    #: its bursts (and therefore every bound involving it) are infinite.
    diverged: list[bool]
    #: Per port: the :func:`port_levels` of its last evaluation.
    partitions: "list[list[PortLevel] | None]"


#: A per-port delay rule: refreshes the ``delays`` (and optionally the
#: ``details``) of every member of one port from the members' current
#: bursts, and returns the port's :func:`port_levels` it read.
PortRule = Callable[["RoutedTemplate", RoutedRun, RoutedPort],
                    "list[PortLevel]"]


@dataclass(frozen=True)
class RoutedTemplate:
    """The routes of one flow set, as flat per-slot data, built once.

    Nothing in it changes during an analysis, so every run over the same
    flows on the same network shares one template and calls
    :meth:`instantiate` for its own state.  Flow ``f`` owns the slots
    ``starts[f]`` to ``starts[f + 1] - 1``.
    """

    #: Per flow: the flow or message as routed.
    flows: "tuple[Flow | Message, ...]"
    names: tuple[str, ...]
    priorities: tuple[PriorityClass, ...]
    #: The node names of the flow's route.
    paths: tuple[tuple[str, ...], ...]
    #: The flow's first slot, followed by the slot count.
    starts: tuple[int, ...]
    #: Per slot: the flow, the position of its port in :attr:`ports`,
    #: the flow's token-bucket rate ``r`` (bits per second) and burst
    #: ``b`` (bits), its ``priority.value`` (0 = most urgent) and the
    #: propagation delay of the hop's link.
    flow_of: tuple[int, ...]
    port_of: tuple[int, ...]
    rates: tuple[float, ...]
    bursts: tuple[float, ...]
    levels: tuple[int, ...]
    propagation: tuple[float, ...]
    #: Sorted by ``(node, toward)``.
    ports: tuple[RoutedPort, ...]
    #: Port positions in feed-forward order, or ``None`` when the ports
    #: must be iterated pass by pass (see the module docstring).
    schedule: tuple[int, ...] | None

    def instantiate(self) -> RoutedRun:
        """Fresh run state: zero upstream and delays, nothing diverged."""
        slots = len(self.flow_of)
        return RoutedRun([0.0] * slots, [0.0] * slots, [None] * slots,
                         [False] * len(self.flows),
                         [None] * len(self.ports))


def route_template(flows: "Iterable[Flow | Message]",
                   shortest_path: Callable[[str, str], Sequence[str]],
                   port: PortAttributes) -> RoutedTemplate:
    """Route every flow and group the slots by directed port.

    Messages, and flows without a path, take ``shortest_path(source,
    destination)``, asked once per distinct pair; flows that carry a
    path keep it.  ``port`` describes a directed port.  Flows keep the
    input order; ports come back sorted by ``(node, toward)``, with
    their feed-forward schedule.

    Raises
    ------
    InvalidFlowError
        If an item is neither a :class:`Flow` nor a :class:`Message`.
    """
    items = tuple(flows)
    pair_paths: dict[tuple[str, str], tuple[str, ...]] = {}
    path_hops: dict[tuple[str, ...], tuple[tuple[str, str], ...]] = {}
    attributes: dict[tuple[str, str], tuple[float, float, float]] = {}
    names, priorities, paths, starts, routes = [], [], [], [], []
    flow_of: list[int] = []
    rates: list[float] = []
    bursts: list[float] = []
    levels: list[int] = []
    propagation: list[float] = []
    for position, item in enumerate(items):
        if isinstance(item, Message):
            message, priority, path = item, assign_priority(item), None
        elif isinstance(item, Flow):
            message, priority, path = item.message, item.priority, item.path
        else:
            raise InvalidFlowError(
                f"cannot analyse a {type(item).__name__}")
        if not path:
            pair = (message.source, message.destination)
            path = pair_paths.get(pair)
            if path is None:
                path = pair_paths[pair] = tuple(shortest_path(*pair))
        hops = path_hops.get(path)
        if hops is None:
            hops = path_hops[path] = tuple(zip(path, path[1:]))
            for hop in hops:
                if hop not in attributes:
                    attributes[hop] = port(*hop)
        count = len(hops)
        names.append(message.name)
        priorities.append(priority)
        paths.append(path)
        starts.append(len(flow_of))
        routes.append(hops)
        flow_of.extend([position] * count)
        rates.extend([message.rate] * count)
        bursts.extend([message.burst] * count)
        levels.extend([priority.value] * count)
        propagation.extend(attributes[hop][2] for hop in hops)
    starts.append(len(flow_of))
    keys = sorted(attributes)
    positions = {key: position for position, key in enumerate(keys)}
    route_ports = {hops: tuple(positions[hop] for hop in hops)
                   for hops in path_hops.values()}
    port_of: list[int] = []
    members: list[list[int]] = [[] for _ in keys]
    onward: list[list[int]] = [[] for _ in keys]
    for hops in routes:
        route = route_ports[hops]
        last = len(route) - 1
        for index, position in enumerate(route):
            slot = len(port_of)
            port_of.append(position)
            members[position].append(slot)
            if index < last:
                onward[position].append(slot)
    return RoutedTemplate(
        flows=items, names=tuple(names), priorities=tuple(priorities),
        paths=tuple(paths), starts=tuple(starts), flow_of=tuple(flow_of),
        port_of=tuple(port_of), rates=tuple(rates), bursts=tuple(bursts),
        levels=tuple(levels), propagation=tuple(propagation),
        ports=tuple(RoutedPort(node, toward, *attributes[(node, toward)][:2],
                               tuple(members[position]),
                               tuple(onward[position]))
                    for position, (node, toward) in enumerate(keys)),
        schedule=_port_schedule(route_ports.values(), len(keys)))


def _port_schedule(paths: Iterable[Sequence[int]], count: int
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


def network_port(network: "Network") -> PortAttributes:
    """The :data:`PortAttributes` of a :class:`Network`'s directed ports.

    Stations relay nothing, so their ports carry no ``t_techno``.
    """
    def port(node: str, toward: str) -> tuple[float, float, float]:
        link = network.link(node, toward)
        technology_delay = (network.technology_delay(node)
                            if network.is_switch(node) else 0.0)
        return link.rate, technology_delay, link.latency

    return port


def network_template(network: "Network", messages: Iterable
                     ) -> RoutedTemplate:
    """:func:`route_template` over a :class:`Network`, flows in name order."""
    return route_template(sorted(messages, key=lambda message: message.name),
                          network.routing.shortest_path,
                          network_port(network))


def port_levels(template: RoutedTemplate, run: RoutedRun, port: RoutedPort,
                policy: str) -> list[PortLevel]:
    """Partition a port's members by priority level, most urgent first.

    Under FIFO (``"fcfs"``) every member shares one level, with nothing
    more urgent and no blocking.  Each member's burst is inflated once,
    ``b + r * upstream`` at its slot (``inf`` once the flow diverged or
    its upstream is infinite), and a level's blocking is the largest of
    the per-level maxima below it: bursts are never negative, so that is
    the largest less urgent burst, exactly.
    """
    members = port.members
    upstream, diverged = run.upstream, run.diverged
    flow_of, slot_rates = template.flow_of, template.rates
    slot_bursts = template.bursts
    inf = math.inf
    bursts = []
    for slot in members:
        delay = upstream[slot]
        bursts.append(inf if diverged[flow_of[slot]] or delay == inf
                      else slot_bursts[slot] + slot_rates[slot] * delay)
    rates = [slot_rates[slot] for slot in members]
    if policy == "fcfs":
        return [PortLevel(list(range(len(members))), bursts, rates,
                          [], [], 0.0)]
    grouped: dict[int, list[int]] = {}
    slot_levels = template.levels
    for position, slot in enumerate(members):
        grouped.setdefault(slot_levels[slot], []).append(position)
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


def port_leftovers(port: RoutedPort, levels: list[PortLevel]
                   ) -> list[tuple[float, float, float]]:
    """Blind-multiplexing left-over ``(rate, latency, delay)`` of every
    port member (the trajectory engine's per-hop rule).

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


def _accumulate(template: RoutedTemplate, run: RoutedRun
                ) -> tuple[list[int], set[int]]:
    """Refresh every flow's upstream prefix sums in place.

    Returns the flows whose upstream moved and the positions of the
    ports at whose slot some member's upstream moved.
    """
    upstream, delays = run.upstream, run.delays
    starts, port_of = template.starts, template.port_of
    propagation = template.propagation
    moved = []
    dirty: set[int] = set()
    for flow in range(len(starts) - 1):
        cumulative = 0.0
        changed = False
        for slot in range(starts[flow], starts[flow + 1]):
            if upstream[slot] != cumulative:
                dirty.add(port_of[slot])
                changed = True
            upstream[slot] = cumulative
            cumulative += delays[slot]
            cumulative += propagation[slot]
        if changed:
            moved.append(flow)
    return moved, dirty


def run_fixed_point(template: RoutedTemplate, run: RoutedRun,
                    rule: PortRule,
                    schedule: Sequence[int] | None = None) -> bool:
    """Apply ``rule`` to the template's ports and accumulate until settled.

    Every evaluation's partition, the rule's return value, is kept in
    ``run.partitions``.  With a ``schedule`` (the template's) every port
    runs once, in that order, and the result is ``True``.  Without one
    the first pass runs every port, later passes only the ports whose
    members' upstream at that slot moved.  Returns ``True`` when every
    flow settled; otherwise the flows still moving are marked diverged
    and their infinite bursts propagated over every port, as the module
    docstring describes.
    """
    ports, partitions = template.ports, run.partitions
    if schedule is not None:
        upstream, delays = run.upstream, run.delays
        propagation = template.propagation
        for position in schedule:
            port = ports[position]
            partitions[position] = rule(template, run, port)
            for slot in port.onward:
                upstream[slot + 1] = (upstream[slot] + delays[slot]) \
                    + propagation[slot]
        return True
    pending: Iterable[int] = range(len(ports))
    for _ in range(MAX_ITERATIONS + 1):
        for position in pending:
            partitions[position] = rule(template, run, ports[position])
        moving, dirty = _accumulate(template, run)
        if not moving:
            return True
        pending = sorted(dirty)
    for flow in moving:
        run.diverged[flow] = True
    for _ in range(len(template.flows) + 1):
        for position, port in enumerate(ports):
            partitions[position] = rule(template, run, port)
        if not _accumulate(template, run)[0]:
            break
    return False
