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
trajectory engines each supply only their per-port delay rule.  The
rules of the loop:

* upstream delay accumulates hop by hop as ``(acc + delay) +
  propagation``, and a flow has settled only when its upstream values
  are exactly equal between two passes;
* after :data:`MAX_ITERATIONS` passes one extra pass runs, and the flows
  still moving are then marked *diverged* (their bursts become
  infinite — cyclic topologies can feed their own growth below nominal
  capacity);
* at most ``len(states) + 1`` further passes let those infinities reach
  every flow sharing a port with a diverged one (``inf`` is absorbing,
  so this terminates), and the fixed point reports non-convergence.

The core does not reorder flows: callers pass them in the order their
rule sums bursts in, and every port lists its members in that order.
Float addition is not associative, so a rule that summed the same
members in another order (or subtracted its own term from a port total)
would move bounds in the last bits and break the byte-identical
goldens; every rule therefore accumulates in member order.

The flows' token-bucket parameters and priority levels are copied onto
each :class:`RoutedFlowState` once, when :func:`route` builds it.  The
rules run once per member pair per pass, so they read those plain
fields instead of going through ``Flow`` → ``Message`` properties and
the priority enum on every access.  The copies are equal to the
values the properties return, so every sum is unchanged.  Bursts only
move between passes, so :func:`port_leftovers` also computes each
member's inflated burst once per port rather than once per member pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.flows.flow import Flow
from repro.flows.priorities import PriorityClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.network import Network

__all__ = ["RoutedFlowState", "PortContext", "route", "route_network",
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

    def burst_at(self, index: int) -> float:
        """Token-bucket burst at hop ``index``, inflated by upstream delay."""
        if self.diverged:
            return math.inf
        upstream = self.upstream[index]
        if math.isinf(upstream):
            return math.inf
        return self.burst + self.rate * upstream


@dataclass(frozen=True)
class PortContext:
    """One directed output port and the routed flows crossing it."""

    node: str
    toward: str
    capacity: float
    #: ``t_techno`` of the relaying node.
    technology_delay: float
    #: ``(state, hop index)`` of every flow using this port, in the
    #: order the flows were passed to :func:`route`.
    members: tuple[tuple[RoutedFlowState, int], ...]


def route(flows: Iterable, route_flow: Callable[[Any], Flow],
          port: PortAttributes
          ) -> tuple[list[RoutedFlowState], list[PortContext]]:
    """Route every flow and group the routed hops by directed port.

    ``route_flow`` turns each item into a routed :class:`Flow` and
    ``port`` describes a directed port.  States keep the input order;
    ports come back sorted by ``(node, toward)``.
    """
    membership: dict[tuple[str, str], list[tuple[RoutedFlowState, int]]] = {}
    attributes: dict[tuple[str, str], tuple[float, float, float]] = {}
    states: list[RoutedFlowState] = []
    for item in flows:
        flow = route_flow(item)
        hops = tuple(flow.hops())
        for hop in hops:
            if hop not in attributes:
                attributes[hop] = port(*hop)
        state = RoutedFlowState(
            flow=flow, priority=flow.priority, name=flow.name,
            rate=flow.rate, burst=flow.burst, level=flow.priority.value,
            hops=hops,
            propagation=tuple(attributes[hop][2] for hop in hops),
            upstream=[0.0] * len(hops), delays=[0.0] * len(hops),
            details=[None] * len(hops))
        for index, hop in enumerate(hops):
            membership.setdefault(hop, []).append((state, index))
        states.append(state)
    ports = []
    for node, toward in sorted(membership):
        capacity, technology_delay, _ = attributes[(node, toward)]
        ports.append(PortContext(
            node=node, toward=toward, capacity=capacity,
            technology_delay=technology_delay,
            members=tuple(membership[(node, toward)])))
    return states, ports


def route_network(network: "Network", messages: Iterable
                  ) -> tuple[list[RoutedFlowState], list[PortContext]]:
    """:func:`route` over a :class:`Network`, flows in name order.

    Stations relay nothing, so their ports carry no ``t_techno``.
    """
    def port(node: str, toward: str) -> tuple[float, float, float]:
        link = network.link(node, toward)
        technology_delay = (network.technology_delay(node)
                            if network.is_switch(node) else 0.0)
        return link.rate, technology_delay, link.latency

    return route(sorted(messages, key=lambda message: message.name),
                 network.route_flow, port)


def port_leftovers(port: PortContext, policy: str
                   ) -> list[tuple[float, float, float]]:
    """Calculus left-over ``(rate, latency, delay)`` of every port member.

    For each member, every other flow at the port is cross traffic,
    except that under strict priority a lower-priority flow only blocks
    non-preemptively (its largest burst); the left-over is rate-latency
    with ``R = C - r_cross`` and ``T = (C * t_techno + blocking +
    b_cross) / R``, and the hop delay is ``T + b / R`` for the flow's
    inflated burst ``b`` (``inf`` when the port cannot serve the flow).
    Results follow ``port.members``.  Bursts cannot change while a rule
    runs, so each member's is computed once; the cross sums still add
    the other members in member order.
    """
    members = port.members
    bursts = [state.burst_at(index) for state, index in members]
    fifo = policy == "fcfs"
    leftovers = []
    for (state, _), burst in zip(members, bursts):
        own = state.level
        cross_burst = 0.0
        cross_rate = 0.0
        blocking = 0.0
        for (other, _), other_burst in zip(members, bursts):
            if other is state:
                continue
            if not fifo and other.level > own:
                blocking = max(blocking, other_burst)
                continue
            cross_burst += other_burst
            cross_rate += other.rate
        rate = port.capacity - cross_rate
        if rate <= 0.0 or math.isinf(cross_burst) or math.isinf(blocking):
            leftovers.append((rate, math.inf, math.inf))
            continue
        latency = (port.capacity * port.technology_delay + blocking
                   + cross_burst) / rate
        if math.isinf(burst) or state.rate > rate:
            leftovers.append((rate, latency, math.inf))
        else:
            leftovers.append((rate, latency, latency + burst / rate))
    return leftovers


def _accumulate(states: Iterable[RoutedFlowState]
                ) -> list[RoutedFlowState]:
    """Refresh upstream prefix sums; the states whose upstream moved."""
    moved = []
    for state in states:
        cumulative = 0.0
        upstream = []
        for delay, propagation in zip(state.delays, state.propagation):
            upstream.append(cumulative)
            cumulative += delay
            cumulative += propagation
        if upstream != state.upstream:
            state.upstream = upstream
            moved.append(state)
    return moved


def run_fixed_point(states: list[RoutedFlowState],
                    ports: list[PortContext],
                    rule: Callable[[PortContext], None]) -> bool:
    """Apply ``rule`` to every port and accumulate until settled.

    ``rule`` refreshes ``delays`` (and optionally ``details``) of every
    member of one port from the members' current bursts.  Returns
    ``True`` when every flow settled; otherwise the flows still moving
    are marked diverged and their infinite bursts propagated, as the
    module docstring describes.
    """
    for _ in range(MAX_ITERATIONS + 1):
        for port in ports:
            rule(port)
        moving = _accumulate(states)
        if not moving:
            return True
    for state in moving:
        state.diverged = True
    for _ in range(len(states) + 1):
        for port in ports:
            rule(port)
        if not _accumulate(states):
            break
    return False
