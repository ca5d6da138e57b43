"""Buffer dimensioning for the switched network.

The paper's motivation section points out that on an uncontrolled switched
Ethernet "messages can be lost if buffers overflow".  With the traffic
shaping in place the Network Calculus gives, for every egress port, a
**backlog bound** — the largest amount of traffic that can ever be queued —
so the switch and station buffers can be dimensioned once and for all and
loss becomes impossible by construction.

This module computes those per-port bounds (station uplinks and switch
output ports of the star topology) and, optionally, compares them with the
largest queue occupancy observed in a simulation run, which must stay below
the bound.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace

from repro import units
from repro.analysis.validation import (lower, simulate, wire_level_messages,
                                       within_bound)
from repro.core.netcalc import TokenBucketArrivalCurve, backlog_bound
from repro.core.netcalc.service import RateLatencyServiceCurve
from repro.flows.message_set import MessageSet
from repro.topology.network import Network

__all__ = ["PortBufferRequirement", "buffer_requirements",
           "validate_buffer_requirements"]


@dataclass(frozen=True)
class PortBufferRequirement:
    """Backlog bound of one directed egress port."""

    #: Upstream node owning the egress queue.
    node: str
    #: Downstream neighbour the port leads to.
    toward: str
    #: Number of flows sharing the port.
    flow_count: int
    #: Backlog bound in bits.
    backlog_bits: float
    #: Observed maximum queue occupancy in bits (NaN when not simulated).
    observed_bits: float = float("nan")

    @property
    def backlog_bytes(self) -> float:
        """Backlog bound in bytes (what a datasheet would quote)."""
        return units.to_bytes(self.backlog_bits)

    @property
    def observed_within_bound(self) -> bool:
        """True when the observed occupancy stays below the bound (or NaN)."""
        if math.isnan(self.observed_bits):
            return True
        return within_bound(self.observed_bits, self.backlog_bits)


def buffer_requirements(message_set: MessageSet,
                        network: Network | None = None,
                        technology_delay: float = units.us(16)
                        ) -> list[PortBufferRequirement]:
    """Per-port backlog bounds for a message set on its star topology.

    The bound of a port is the backlog bound of the aggregate token bucket of
    the flows sharing it, served at the link rate after the relaying latency
    (zero at station uplinks, ``t_techno`` at switch ports).
    """
    if network is None:
        network = lower(message_set, capacity=units.mbps(10),
                        technology_delay=technology_delay).network
    flows = network.route_flows(wire_level_messages(message_set))

    per_port: dict[tuple[str, str], list] = defaultdict(list)
    for flow in flows:
        for node, toward in flow.hops():
            per_port[(node, toward)].append(flow)

    requirements = []
    for (node, toward), members in sorted(per_port.items()):
        link = network.link(node, toward)
        latency = (network.technology_delay(node)
                   if network.is_switch(node) else 0.0)
        aggregate = TokenBucketArrivalCurve(
            bucket=math.fsum(f.burst for f in members),
            token_rate=math.fsum(f.rate for f in members))
        service = RateLatencyServiceCurve(rate=link.rate, delay=latency)
        requirements.append(PortBufferRequirement(
            node=node, toward=toward, flow_count=len(members),
            backlog_bits=backlog_bound(aggregate, service)))
    return requirements


def validate_buffer_requirements(message_set: MessageSet,
                                 simulation_duration: float = units.ms(320),
                                 seed: int = 1,
                                 technology_delay: float = units.us(16),
                                 capacity: float = units.mbps(10)
                                 ) -> list[PortBufferRequirement]:
    """Compare the analytic backlog bounds with simulated queue occupancy.

    Runs the strict-priority simulation of the star at ``capacity`` under
    synchronised releases and fills :attr:`PortBufferRequirement.
    observed_bits` with the largest occupancy each egress queue reached.
    """
    inputs = lower(message_set, capacity=capacity,
                   technology_delay=technology_delay)
    observed = simulate(inputs, "strict-priority", seed=seed,
                        duration=simulation_duration).max_queue_bits
    return [replace(req, observed_bits=observed.get(
                f"{req.node}->{req.toward}", math.nan))
            for req in buffer_requirements(message_set, inputs.network,
                                           technology_delay)]
