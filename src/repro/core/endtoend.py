"""End-to-end worst-case delay analysis over a routed network.

The paper evaluates a single multiplexing point (the station's egress
multiplexer, with the switch relaying delay folded into ``t_techno``).  This
module generalises that analysis to an arbitrary routed topology by walking
every flow's path and summing, for every *directed hop* ``(u, v)``:

* the worst-case queuing delay of the multiplexer at ``u``'s egress port
  toward ``v`` — computed with the paper's FCFS or strict-priority formula
  applied to the set of flows sharing that port,
* the link propagation delay of ``(u, v)``.

Switch egress ports additionally pay the switch's relaying-delay bound
``t_techno``.  The multiplexer bound already contains the serialisation of
the tagged packet (its own burst is part of the burst term), so no separate
transmission term is added.

This is the reproduction's one network-calculus composition: every
lowering, star or multi-hop graph, is bounded by it.

Because a flow's burst grows as it accumulates jitter upstream (a token
bucket ``(b, r)`` delayed by at most ``D`` is constrained by
``(b + r D, r)`` downstream), the analysis propagates bursts hop by hop:
the multiplexer formula is the per-port rule of the routed fixed-point
core shared with every other multi-hop analysis
(:mod:`repro.analysis.engines.iteration`), which iterates it until the
inflated bursts settle.

**Overload.**  Nothing is raised for the network as a whole.  A flow
whose class an egress port cannot serve (the aggregate rate under FCFS,
or the rate of its class and every more urgent one under strict
priority, exceeds the link) gets an infinite delay at that hop; its
burst is then infinite downstream, so every bound it takes part in is
infinite too.  Cyclic topologies can diverge even below nominal
capacity: when the fixed point does not settle, the flows still moving
are reported with infinite bounds in the same way, and the result says
it did not converge.

**Backlogs.**  Each port evaluation keeps its partition by priority
level on the port (``PortContext.levels``).  From it the analysis
bounds every topology port's aggregate queue (all classes: the inflated
bursts plus the rates times the port's relaying latency), directly
comparable with the simulator's per-port queue maximum, and each
class's worst per-port queue: the class is served by the link's
residual after the strictly more urgent classes and the non-preemptive
blocking term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Literal

from repro.analysis.engines.iteration import (PortContext, PortLevel,
                                              RoutedTemplate, network_port,
                                              port_levels, route_template,
                                              run_fixed_point)
from repro.core.multiplexer import (ClassAggregate, MultiplexerBound,
                                    compute_class_bounds)
from repro.errors import AnalysisError, InvalidFlowError
from repro.flows.flow import Flow
from repro.flows.messages import Message
from repro.flows.priorities import PriorityClass
from repro.topology.network import Network

__all__ = [
    "HopBound",
    "FlowBound",
    "PortBacklogBound",
    "NetworkAnalysisResult",
    "EndToEndAnalysis",
]

Policy = Literal["fcfs", "strict-priority"]


@dataclass(frozen=True)
class HopBound:
    """Worst-case delay contribution of one directed hop of a flow's path."""

    #: Node whose egress multiplexer the flow crosses.
    node: str
    #: Next node on the path (identifies the egress port).
    toward: str
    #: Queuing + relaying bound at this multiplexer (seconds; ``inf``
    #: when the port cannot bound the flow).
    queuing_delay: float
    #: Propagation delay of the link (seconds).
    propagation_delay: float
    #: Full multiplexer bound with its breakdown; ``None`` when the port
    #: is overloaded for the flow's class.
    multiplexer_bound: MultiplexerBound | None

    @property
    def total(self) -> float:
        """Queuing plus propagation delay of this hop (seconds)."""
        return self.queuing_delay + self.propagation_delay


@dataclass(frozen=True)
class FlowBound:
    """End-to-end worst-case delay bound of one flow."""

    flow: Flow
    hops: tuple[HopBound, ...]

    @property
    def name(self) -> str:
        """Flow name."""
        return self.flow.name

    @property
    def priority(self) -> PriorityClass:
        """The flow's 802.1p class."""
        return self.flow.priority

    @property
    def deadline(self) -> float | None:
        """Requested maximal response time (seconds), if any."""
        return self.flow.deadline

    @property
    def total_delay(self) -> float:
        """End-to-end worst-case delay bound (seconds; ``inf`` when
        unbounded)."""
        return math.fsum(hop.total for hop in self.hops)

    @property
    def meets_deadline(self) -> bool:
        """True when the bound does not exceed the deadline (or none is set)."""
        if self.deadline is None:
            return True
        return self.total_delay <= self.deadline

    @property
    def margin(self) -> float | None:
        """Deadline minus bound (seconds); negative means a violation."""
        if self.deadline is None:
            return None
        return self.deadline - self.total_delay


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


@dataclass
class NetworkAnalysisResult:
    """The per-flow and per-port bounds produced by one run of the analysis."""

    policy: str
    flow_bounds: list[FlowBound] = field(default_factory=list)
    #: Aggregate backlog bound of every directed port of the topology,
    #: sorted by ``(node, toward)``.
    ports: tuple[PortBacklogBound, ...] = ()
    #: Worst per-port queue bound of every class present (bits), by class.
    class_backlogs: dict[PriorityClass, float] = field(default_factory=dict)
    #: True when the burst-propagation fixed point settled; when False
    #: the flows it could not settle have infinite bounds.
    converged: bool = True

    def __iter__(self):
        return iter(self.flow_bounds)

    def __len__(self) -> int:
        return len(self.flow_bounds)

    def bound_for(self, flow_name: str) -> FlowBound:
        """The bound of the flow called ``flow_name``."""
        for bound in self.flow_bounds:
            if bound.name == flow_name:
                return bound
        raise KeyError(flow_name)

    def violations(self) -> list[FlowBound]:
        """Flows whose bound exceeds their deadline."""
        return [b for b in self.flow_bounds if not b.meets_deadline]

    @property
    def all_deadlines_met(self) -> bool:
        """True when no flow violates its deadline."""
        return not self.violations()

    def worst_per_class(self) -> dict[PriorityClass, FlowBound]:
        """For every class with at least one flow, the flow with the
        largest bound (the first one, in flow order, on a tie)."""
        worst: dict[PriorityClass, FlowBound] = {}
        for bound in self.flow_bounds:
            current = worst.get(bound.priority)
            if current is None or bound.total_delay > current.total_delay:
                worst[bound.priority] = bound
        return worst

    def max_delay(self) -> float:
        """Largest end-to-end bound over all flows (seconds)."""
        if not self.flow_bounds:
            raise AnalysisError("the analysis produced no flow bound")
        return max(b.total_delay for b in self.flow_bounds)


class EndToEndAnalysis:
    """Compute per-flow end-to-end delay bounds over a routed network.

    Parameters
    ----------
    network:
        The topology (stations, switches, links).
    policy:
        ``"fcfs"`` for the plain FCFS multiplexer at every egress port, or
        ``"strict-priority"`` for the four-queue 802.1p multiplexer.

    A flow's token-bucket burst is inflated hop by hop by the jitter it
    may have accumulated upstream (``b → b + r · D_upstream``), which the
    multi-hop bounds need to be valid.  Station egress ports carry no
    ``t_techno``: stations relay nothing, and each switch egress port
    accounts for its own relaying delay.
    """

    def __init__(self, network: Network,
                 policy: Policy = "strict-priority") -> None:
        if policy not in ("fcfs", "strict-priority"):
            raise ValueError(
                f"policy must be 'fcfs' or 'strict-priority', got {policy!r}")
        self.network = network
        self.policy = policy

    # -- public API ---------------------------------------------------------

    def analyze(self, flows: "Iterable[Flow | Message] | RoutedTemplate"
                ) -> NetworkAnalysisResult:
        """Compute the end-to-end bound of every flow and port.

        Messages are routed through the network in the order given;
        flows that already carry a path keep it.  A
        :class:`RoutedTemplate` of this network (``network_template``)
        comes already routed and is used as it is.

        Raises
        ------
        InvalidFlowError
            If a flow's path does not exist in the network.
        """
        template = flows if isinstance(flows, RoutedTemplate) else \
            route_template(flows, self._route_flow,
                           network_port(self.network))
        states, ports = template.instantiate()
        converged = run_fixed_point(states, ports, self._port_bounds,
                                    template.schedule)
        if not converged:
            # An unsettled run may end on an accumulation that came
            # after the ports' last evaluations: partition afresh.
            for port in ports:
                port.levels = port_levels(port, self.policy)
        port_bounds, class_backlogs = self._backlogs(ports)
        return NetworkAnalysisResult(
            policy=self.policy,
            flow_bounds=[FlowBound(flow=state.flow, hops=tuple(
                HopBound(node=node, toward=toward, queuing_delay=delay,
                         propagation_delay=propagation,
                         multiplexer_bound=bound)
                for (node, toward), propagation, delay, bound
                in zip(state.hops, state.propagation, state.delays,
                       state.details))) for state in states],
            ports=port_bounds, class_backlogs=class_backlogs,
            converged=converged)

    # -- the per-port rule ----------------------------------------------------

    def _route_flow(self, flow: Flow | Message) -> Flow:
        if not isinstance(flow, (Flow, Message)):
            raise InvalidFlowError(
                f"cannot analyse a {type(flow).__name__}")
        return self.network.route_flow(flow)

    def _port_bounds(self, port: PortContext) -> None:
        """The paper's multiplexer bound of every flow at one port.

        The multiplexer sees the members' (possibly inflated) bursts, read
        from the port's partition, which is kept for :meth:`_backlogs`.
        The FCFS multiplexer reports its single bound under every class
        present; a class the port cannot serve gets ``inf``.
        """
        port.levels = port_levels(port, self.policy)
        members = port.members
        # The per-class aggregates of the members' inflated bursts, as
        # :func:`~repro.core.multiplexer.aggregate_flows` sums them.
        classes: dict[PriorityClass, tuple[list[float], list[float]]] = {}
        for level in port.levels:
            for position, burst, rate in zip(level.positions, level.bursts,
                                             level.rates):
                bursts, rates = classes.setdefault(
                    members[position][0].priority, ([], []))
                bursts.append(burst)
                rates.append(rate)
        bounds = compute_class_bounds(
            {cls: ClassAggregate(burst=math.fsum(bursts),
                                 rate=math.fsum(rates),
                                 max_burst=max(bursts), count=len(bursts))
             for cls, (bursts, rates) in sorted(classes.items())},
            port.capacity, port.technology_delay, self.policy)
        for state, index in members:
            bound = bounds[state.priority]
            if bound is None or bound.details["unstable"]:
                state.details[index] = None
                state.delays[index] = math.inf
            else:
                state.details[index] = bound
                state.delays[index] = bound.delay

    # -- backlogs -------------------------------------------------------------

    def _backlogs(self, ports: list[PortContext]
                  ) -> tuple[tuple[PortBacklogBound, ...],
                             dict[PriorityClass, float]]:
        """Every topology port's aggregate bound and each class's worst.

        The class-``p`` queue holds class-``p`` traffic served by the
        link's residual after the strictly more urgent classes (plus the
        blocking term); under FCFS every class shares the single queue,
        so each gets the aggregate bound.  Each port's bursts are those
        of the partition its last evaluation kept.
        """
        contexts = {(port.node, port.toward): port for port in ports}
        port_bounds = []
        class_backlogs: dict[PriorityClass, float] = {}
        # Every directed port of the topology gets a bound: the simulator
        # reports an (empty) queue maximum even for ports no flow crosses.
        for node, successors in sorted(self.network.spec.successors().items()):
            for toward in successors:
                port = contexts.get((node, toward))
                if port is None:
                    port_bounds.append(PortBacklogBound(node, toward, 0, 0.0))
                    continue
                total_rate = math.fsum(rate for level in port.levels
                                       for rate in level.rates)
                total_burst = math.fsum(burst for level in port.levels
                                        for burst in level.bursts)
                if total_rate > port.capacity or math.isinf(total_burst):
                    aggregate = math.inf
                else:
                    aggregate = total_burst \
                        + total_rate * port.technology_delay
                port_bounds.append(PortBacklogBound(
                    node, toward, len(port.members), aggregate))
                for level in port.levels:
                    backlog = _level_backlog(level, port)
                    for position in level.positions:
                        priority = port.members[position][0].priority
                        class_backlogs[priority] = max(
                            class_backlogs.get(priority, 0.0), backlog)
        return tuple(port_bounds), dict(sorted(class_backlogs.items()))


def _level_backlog(level: PortLevel, port: PortContext) -> float:
    """Queue bound of one priority level at a port (``inf`` if unbounded)."""
    own_burst = math.fsum(level.bursts)
    own_rate = math.fsum(level.rates)
    cross_burst = math.fsum(level.higher_bursts)
    rate = port.capacity - math.fsum(level.higher_rates)
    if rate <= 0.0 or own_rate > rate or math.isinf(cross_burst) or \
            math.isinf(own_burst) or math.isinf(level.blocking):
        return math.inf
    latency = (port.capacity * port.technology_delay + level.blocking
               + cross_burst) / rate
    return own_burst + own_rate * latency

