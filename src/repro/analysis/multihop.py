"""End-to-end bounds on arbitrary multi-hop graph topologies.

The paper's single-multiplexer bound composes along a flow's route by
**left-over service curves**: every directed output port offers the full
link ``beta(t) = C (t - T0)+`` (``T0`` = the relaying latency of the
upstream node), and what a flow actually receives there is the link
minus the cross traffic sharing the port.  For token-bucket cross
traffic ``(b_c, r_c)`` the left-over is again rate-latency::

    R = C - r_c        T = (C*T0 + L_low + b_c) / (C - r_c)

where ``L_low`` is the non-preemptive blocking term of strict priority
(the largest lower-priority burst in transmission; zero under FCFS,
whose left-over treats every other flow at the port as cross traffic).
Left-over curves concatenate by (min-plus) convolution — ``R = min R_i``,
``T = sum T_i`` — and the end-to-end delay bound *pays the burst only
once*.  Switches are store-and-forward: a frame is not available
downstream until it is fully received, which the fluid concatenation
misses, so every hop but the last also pays one **packetisation** term
``l / R_i`` (Le Boudec & Thiran's packetizer result, with ``l`` the
frame length bounded by the flow's burst)::

    D = sum(T_i) + sum_{i<n}(l / R_i) + b / min(R_i) + sum(propagation_i)

Cross-traffic bursts at an inner port are the *output* bursts of their
upstream hops, ``b + r * D_upstream``; those depend on delays which
depend on bursts, so the per-port left-over rule above is iterated to a
fixed point by the routed fixed-point core shared with every other
multi-hop analysis (:mod:`repro.analysis.engines.iteration`; Cruz's
time-stopping argument: a converged finite fixed point is a valid
bound).  Cyclic topologies — the ring family — can diverge even below
nominal capacity; when the iteration does not settle, the flows still
moving are conservatively reported unstable (infinite bound, which then
propagates to everything sharing a port with them) rather than with an
unsound finite number.

The per-port **backlog bounds** (aggregate burst at convergence plus
rate times port latency) double as buffer-dimensioning output and as
the per-hop soundness invariant the fuzz harness compares against the
simulator's observed queue maxima.  Routes are the deterministic
lexicographic shortest paths of :class:`RoutingEngine`, which are
exactly what the simulator's destination-keyed forwarding tables
realise — bound and simulation always talk about the same ports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.engines.iteration import (PortContext, PortLevel,
                                              RoutedFlowState, RoutedTemplate,
                                              port_leftovers, port_levels,
                                              route_template, run_fixed_point)
from repro.errors import ConfigurationError, EmptyAggregateError
from repro.flows.flow import Flow
from repro.flows.messages import Message
from repro.flows.priorities import PriorityClass
from repro.topology.graph import GraphTopologySpec
from repro.topology.routing import RoutingEngine

__all__ = ["GraphPathAnalysis", "MultiHopAnalysisResult", "PathFlowBound",
           "HopServiceBound", "PortBacklogBound"]


@dataclass(frozen=True)
class HopServiceBound:
    """The left-over service one flow receives at one directed port."""

    #: Upstream node owning the egress queue.
    node: str
    #: Downstream neighbour the port leads to.
    toward: str
    #: Left-over service rate in bits per second.
    rate: float
    #: Left-over service latency in seconds (``inf`` when overloaded).
    latency: float
    #: Delay bound of the flow at this hop (with its inflated burst).
    delay: float
    #: One-way propagation latency of the link.
    propagation: float


@dataclass(frozen=True)
class PathFlowBound:
    """End-to-end result for one routed flow."""

    #: Flow (message) name.
    name: str
    #: 802.1p class of the flow.
    priority: PriorityClass
    #: The route, as a node-name sequence.
    path: tuple[str, ...]
    #: Number of switches on the route (the "multiplexing points").
    switches: int
    #: End-to-end delay bound in seconds (``inf`` when unstable).
    delay: float
    #: Per-hop left-over services, in route order.
    hops: tuple[HopServiceBound, ...]

    @property
    def stable(self) -> bool:
        """True when the end-to-end bound is finite."""
        return math.isfinite(self.delay)


@dataclass(frozen=True)
class PortBacklogBound:
    """Aggregate backlog bound of one directed egress port.

    Bounds the *total* occupancy of the egress queue (all classes), so
    it is directly comparable with the simulator's per-port
    ``max_queue_bits`` observation under any scheduling policy.
    """

    #: Upstream node owning the egress queue.
    node: str
    #: Downstream neighbour the port leads to.
    toward: str
    #: Number of flows sharing the port.
    flow_count: int
    #: Backlog bound in bits (``inf`` when the port is overloaded).
    backlog_bits: float


@dataclass(frozen=True)
class MultiHopAnalysisResult:
    """Everything :meth:`GraphPathAnalysis.analyze` computes."""

    #: Per-flow end-to-end bounds, sorted by flow name.
    flows: tuple[PathFlowBound, ...]
    #: Per-port aggregate backlog bounds, sorted by (node, toward).
    ports: tuple[PortBacklogBound, ...]
    #: True when the burst-propagation fixed point settled; when False
    #: the flows it could not settle were reported unstable.
    converged: bool
    #: Worst per-port queue bound of every class present (bits): with
    #: :meth:`worst_per_class`, the ``calculus`` engine's per-class row
    #: on graph topologies.
    class_backlogs: dict = field(default_factory=dict)

    def worst_per_class(self) -> dict[PriorityClass, PathFlowBound]:
        """The worst (largest-delay) flow bound of every class present.

        Flows are scanned in name order and strict ``>`` keeps the
        first maximiser, so the pick is deterministic.
        """
        worst: dict[PriorityClass, PathFlowBound] = {}
        for bound in self.flows:
            current = worst.get(bound.priority)
            if current is None or bound.delay > current.delay:
                worst[bound.priority] = bound
        return worst


class GraphPathAnalysis:
    """Left-over-service end-to-end analysis over a graph topology.

    Parameters
    ----------
    spec:
        The (structurally valid, connected) topology.
    policy:
        ``"fcfs"`` or ``"strict-priority"`` — must match the simulator
        cell being validated against.
    """

    def __init__(self, spec: GraphTopologySpec,
                 policy: str = "strict-priority") -> None:
        if policy not in ("fcfs", "strict-priority"):
            raise ConfigurationError(
                f"policy must be 'fcfs' or 'strict-priority', "
                f"got {policy!r}")
        self.spec = spec.validated()
        self.policy = policy
        self.engine = RoutingEngine(spec)

    # -- public entry ------------------------------------------------------

    def analyze(self, flows: "Iterable[Flow | Message] | RoutedTemplate"
                ) -> MultiHopAnalysisResult:
        """Bound every flow end to end and every port's backlog.

        ``flows`` are routed here, in name order, unless they come
        already routed: a :class:`RoutedTemplate` of this topology's
        network (``network_template``) holds the same routes.
        """
        template = flows if isinstance(flows, RoutedTemplate) else \
            route_template(sorted(flows, key=lambda item: item.name),
                           self.engine.route_flow, self._port)
        states, ports = template.instantiate()
        if not states:
            raise EmptyAggregateError("no flow to analyse")
        converged = run_fixed_point(states, ports, self._leftover,
                                    template.schedule)
        if not converged:
            # An unsettled run may end on an accumulation that came
            # after the ports' last evaluations: partition afresh.
            for port in ports:
                port.levels = port_levels(port, self.policy)

        flow_bounds = []
        for state in states:
            hops = []
            for index, (node, toward) in enumerate(state.hops):
                rate, latency = state.details[index]
                hops.append(HopServiceBound(
                    node=node, toward=toward, rate=rate, latency=latency,
                    delay=state.delays[index],
                    propagation=state.propagation[index]))
            flow_bounds.append(PathFlowBound(
                name=state.name, priority=state.priority,
                path=tuple(state.flow.path),
                switches=sum(1 for node in state.flow.path
                             if self.spec.is_switch(node)),
                delay=self._end_to_end(state, hops),
                hops=tuple(hops)))

        port_bounds, class_backlogs = self._backlogs(ports)
        return MultiHopAnalysisResult(
            flows=tuple(flow_bounds), ports=tuple(port_bounds),
            converged=converged, class_backlogs=class_backlogs)

    # -- the per-port rule -------------------------------------------------

    def _port(self, node: str, toward: str) -> tuple[float, float, float]:
        link = self.spec.edge(node, toward)
        return link.rate, self.spec.technology_delay(node), link.latency

    def _leftover(self, port: PortContext) -> None:
        """Left-over service and delay of every flow at one port.

        The port's partition is kept for :meth:`_backlogs`.
        """
        port.levels = port_levels(port, self.policy)
        for (state, index), (rate, latency, delay) in zip(
                port.members, port_leftovers(port, port.levels)):
            state.details[index] = (rate, latency)
            state.delays[index] = delay

    # -- results -----------------------------------------------------------

    def _end_to_end(self, state: RoutedFlowState,
                    hops: list[HopServiceBound]) -> float:
        """Concatenated (pay-bursts-only-once) end-to-end delay bound.

        Every hop but the last adds a packetisation term ``l / R_i``:
        store-and-forward relays only see a frame once it is fully
        transmitted upstream, a delay the fluid concatenation does not
        charge.  The frame length ``l`` is bounded by the flow's burst
        (exact for single-frame messages, conservative for fragmented
        ones).
        """
        if any(math.isinf(hop.delay) for hop in hops):
            return math.inf
        min_rate = min(hop.rate for hop in hops)
        if min_rate <= 0.0 or state.rate > min_rate:
            return math.inf
        packetisation = math.fsum(state.burst / hop.rate
                                  for hop in hops[:-1])
        return math.fsum(hop.latency for hop in hops) \
            + packetisation + state.burst / min_rate \
            + math.fsum(hop.propagation for hop in hops)

    def _backlogs(self, ports: list[PortContext]
                  ) -> tuple[list[PortBacklogBound],
                             dict[PriorityClass, float]]:
        """Every topology port's aggregate bound and each class's worst.

        The class-``p`` queue holds class-``p`` traffic served by the
        link's residual after the strictly higher classes (plus the
        blocking term); under FCFS every class shares the single queue,
        so each gets the aggregate bound.  Each port's bursts are those
        of the partition its last evaluation kept.
        """
        contexts = {(port.node, port.toward): port for port in ports}
        port_bounds = []
        class_backlogs: dict[PriorityClass, float] = {}
        # Every directed port of the topology gets a bound: the simulator
        # reports an (empty) queue maximum even for ports no flow crosses,
        # and the fuzz invariant compares port by port.
        all_ports = {(node, successor)
                     for node, successors in self.spec.successors().items()
                     for successor in successors}
        for (node, toward) in sorted(all_ports):
            port = contexts.get((node, toward))
            levels = [] if port is None else port.levels
            capacity = self.spec.edge(node, toward).rate
            latency0 = self.spec.technology_delay(node)
            total_rate = math.fsum(rate for level in levels
                                   for rate in level.rates)
            total_burst = math.fsum(burst for level in levels
                                    for burst in level.bursts)
            if total_rate > capacity or math.isinf(total_burst):
                aggregate = math.inf
            else:
                aggregate = total_burst + total_rate * latency0
            port_bounds.append(PortBacklogBound(
                node=node, toward=toward,
                flow_count=0 if port is None else len(port.members),
                backlog_bits=aggregate))
            for level in levels:
                backlog = _level_backlog(level, capacity, latency0)
                for priority in {port.members[position][0].priority
                                 for position in level.positions}:
                    class_backlogs[priority] = max(
                        class_backlogs.get(priority, 0.0), backlog)
        return port_bounds, class_backlogs


def _level_backlog(level: PortLevel, capacity: float,
                   latency0: float) -> float:
    """Queue bound of one priority level at a port (``inf`` if unbounded)."""
    own_burst = math.fsum(level.bursts)
    own_rate = math.fsum(level.rates)
    cross_burst = math.fsum(level.higher_bursts)
    rate = capacity - math.fsum(level.higher_rates)
    if rate <= 0.0 or own_rate > rate or math.isinf(cross_burst) or \
            math.isinf(own_burst) or math.isinf(level.blocking):
        return math.inf
    latency = (capacity * latency0 + level.blocking + cross_burst) / rate
    return own_burst + own_rate * latency
