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

Because a flow's burst grows as it accumulates jitter upstream (a token
bucket ``(b, r)`` delayed by at most ``D`` is constrained by
``(b + r D, r)`` downstream), the analysis propagates bursts hop by hop:
the multiplexer formula is the per-port rule of the routed fixed-point
core shared with every other multi-hop analysis
(:mod:`repro.analysis.engines.iteration`), which iterates it until the
inflated bursts settle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal

from repro.analysis.engines.iteration import (PortContext, route,
                                              run_fixed_point)
from repro.core.multiplexer import (
    FcfsMultiplexerAnalysis,
    MultiplexerBound,
    StrictPriorityMultiplexerAnalysis,
)
from repro.errors import AnalysisError, InvalidFlowError
from repro.flows.flow import Flow
from repro.flows.messages import Message
from repro.flows.priorities import PriorityClass
from repro.topology.network import Network

__all__ = [
    "HopBound",
    "FlowBound",
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
    #: Queuing + relaying bound at this multiplexer (seconds).
    queuing_delay: float
    #: Propagation delay of the link (seconds).
    propagation_delay: float
    #: Full multiplexer bound with its breakdown.
    multiplexer_bound: MultiplexerBound

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
        """End-to-end worst-case delay bound (seconds)."""
        return sum(hop.total for hop in self.hops)

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


@dataclass
class NetworkAnalysisResult:
    """The per-flow bounds produced by one run of the analysis."""

    policy: str
    flow_bounds: list[FlowBound] = field(default_factory=list)

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
        """For every class with at least one flow, the flow with the largest bound."""
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

    def analyze(self, flows: Iterable[Flow | Message]
                ) -> NetworkAnalysisResult:
        """Compute the end-to-end bound of every flow.

        Messages are routed automatically through the network; flows that
        already carry a path keep it.

        Raises
        ------
        InvalidFlowError
            If a flow's path does not exist in the network.
        UnstableSystemError
            If some multiplexing point is overloaded.
        """
        states, ports = route(flows, self._route_flow, self._port)
        run_fixed_point(states, ports, self._port_bounds)

        result = NetworkAnalysisResult(policy=self.policy)
        for state in states:
            result.flow_bounds.append(FlowBound(flow=state.flow, hops=tuple(
                HopBound(node=node, toward=toward,
                         queuing_delay=bound.delay,
                         propagation_delay=propagation,
                         multiplexer_bound=bound)
                for (node, toward), propagation, bound
                in zip(state.hops, state.propagation, state.details))))
        return result

    # -- the per-port rule ----------------------------------------------------

    def _route_flow(self, flow: Flow | Message) -> Flow:
        if not isinstance(flow, (Flow, Message)):
            raise InvalidFlowError(
                f"cannot analyse a {type(flow).__name__}")
        return self.network.route_flow(flow)

    def _port(self, node: str, toward: str) -> tuple[float, float, float]:
        link = self.network.link(node, toward)
        technology_delay = (self.network.technology_delay(node)
                            if self.network.is_switch(node) else 0.0)
        return link.rate, technology_delay, link.latency

    def _port_bounds(self, port: PortContext) -> None:
        """The paper's multiplexer bound of every flow at one port.

        Members keep the input flow order, so the multiplexer sums their
        (possibly inflated) bursts in that order.  The FCFS multiplexer
        reports its single bound under every class present.
        """
        analysis = (FcfsMultiplexerAnalysis if self.policy == "fcfs"
                    else StrictPriorityMultiplexerAnalysis)
        bounds = analysis(
            capacity=port.capacity, technology_delay=port.technology_delay
        ).class_bounds([_EffectiveFlow(name=state.name,
                                       burst=state.burst_at(index),
                                       rate=state.rate,
                                       priority=state.priority)
                        for state, index in port.members])
        for state, index in port.members:
            bound = bounds[state.priority]
            state.details[index] = bound
            state.delays[index] = bound.delay


@dataclass(frozen=True)
class _EffectiveFlow:
    """A flow as seen at one multiplexing point (burst possibly inflated)."""

    name: str
    burst: float
    rate: float
    priority: PriorityClass
