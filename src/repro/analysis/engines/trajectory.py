"""The ``trajectory`` engine — per-flow bounds along the flow's trajectory.

The trajectory approach follows one frame of the flow under study along
its path and counts each interfering frame only where it can actually
delay the trajectory.  Adapted to this reproduction's models:

* **higher-priority** interference is paid at every hop, through the
  strict-priority left-over service of the hop (rate ``C - R_hi``,
  latency ``(C*t_techno + blocking + B_hi) / (C - R_hi)``, with the
  largest lower-priority frame as non-preemptive blocking),
* **same-class** interference is paid **once per segment** — a maximal
  run of consecutive hops crossed by the *same* set of same-class flows.
  Frames of a class are served FIFO within the class, so over a segment
  the class aggregate sees the concatenation of the hop left-over
  curves (minimum rate, summed latencies) and the cross traffic is
  charged a single burst term at the segment entrance (pay bursts only
  once),
* the flow's **own burst** is paid once, at the slowest segment rate,
  and store-and-forward packetisation adds one burst serialisation per
  non-final hop (physically unavoidable on a relaying switch).

Upstream burst inflation reuses the shared fixed-point scaffolding
(:mod:`repro.analysis.engines.iteration`): during the iteration each
hop's delay is the plain per-hop left-over bound (as in the multi-hop
calculus), and the segment concatenation is applied in the final
end-to-end composition only — the iteration stays monotone and either
settles or flags the flow unstable.

Under FIFO every competing flow counts as same-class, so the engine
degenerates to blind-multiplexing concatenation per segment; at a
single multiplexing point it essentially matches the calculus bound,
and on longer paths the ranking experiment shows where paying bursts
per segment beats paying them per hop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.analysis.engines.base import ScenarioBoundEngine
from repro.analysis.engines.iteration import (PortContext, RoutedFlowState,
                                              port_leftovers, route_network,
                                              run_fixed_point)
from repro.flows.priorities import PriorityClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flows.messages import Message
    from repro.topology.graph import GraphTopologySpec
    from repro.topology.network import Network

__all__ = ["TrajectoryEngine"]


@dataclass(frozen=True)
class _HopLeftover:
    """Left-over service and same-class company at one hop of a path."""

    #: Rate left after strictly-higher-priority interference.
    rate: float
    #: Latency of the left-over curve (relaying, blocking, higher bursts).
    latency: float
    #: Names of the same-class flows sharing the hop (segment key).
    companions: frozenset[str]
    #: ``(state, hop index)`` of each companion at this hop.
    members: tuple[tuple[RoutedFlowState, int], ...]
    port: PortContext


class TrajectoryEngine(ScenarioBoundEngine):
    """Trajectory-approach bound with per-segment burst accounting."""

    name = "trajectory"

    def network_class_bounds(self, messages: "Iterable[Message]",
                             policy: str, *, network: "Network",
                             graph_spec: "GraphTopologySpec | None" = None
                             ) -> dict[PriorityClass, float]:
        """Per-class worst of the per-flow trajectory compositions."""
        states, ports = route_network(network, messages)
        if not states:
            return {}
        ports_by_hop = {(port.node, port.toward): port for port in ports}
        run_fixed_point(states, ports,
                        lambda port: self._port_delays(port, policy))
        mapping: dict[PriorityClass, float] = {}
        for state in states:
            delay = self._end_to_end(state, ports_by_hop, policy)
            previous = mapping.get(state.priority, 0.0)
            mapping[state.priority] = max(previous, delay)
        return mapping

    # -- upstream iteration --------------------------------------------------

    @staticmethod
    def _port_delays(port: PortContext, policy: str) -> None:
        """Per-hop left-over delays used for upstream burst inflation.

        The iterated state uses the calculus per-hop left-over (every
        competitor paid at the hop), which keeps the fixed point
        monotone; the segment concatenation below only sharpens the
        final composition, never the iterated state.
        """
        for (state, index), (_, _, delay) in zip(
                port.members, port_leftovers(port, policy)):
            state.delays[index] = delay

    # -- final composition ---------------------------------------------------

    def _end_to_end(self, state: RoutedFlowState,
                    ports_by_hop: dict, policy: str) -> float:
        """Segment-concatenated trajectory bound for one routed flow."""
        if state.diverged:
            return math.inf
        leftovers = []
        for index, hop in enumerate(state.hops):
            leftover = self._hop_leftover(ports_by_hop[hop], state, policy)
            if leftover is None:
                return math.inf
            leftovers.append(leftover)

        total_latency = 0.0
        slowest_segment = math.inf
        start = 0
        while start < len(leftovers):
            stop = start
            while stop + 1 < len(leftovers) and \
                    leftovers[stop + 1].companions == \
                    leftovers[start].companions:
                stop += 1
            segment = leftovers[start:stop + 1]
            segment_rate, segment_latency = self._segment(segment)
            if segment_rate <= 0 or not math.isfinite(segment_latency):
                return math.inf
            total_latency += segment_latency
            slowest_segment = min(slowest_segment, segment_rate)
            start = stop + 1
        if state.rate > slowest_segment:
            return math.inf

        # Store-and-forward: each relaying hop re-serialises the burst.
        packetisation = 0.0
        for leftover in leftovers[:-1]:
            local_rate = leftover.rate - sum(
                other.rate for other, _ in leftover.members)
            if local_rate <= 0:
                return math.inf
            packetisation += state.burst / local_rate
        propagation = sum(state.propagation)
        return (total_latency + state.burst / slowest_segment
                + packetisation + propagation)

    def _hop_leftover(self, port: PortContext, state: RoutedFlowState,
                      policy: str) -> "_HopLeftover | None":
        """Strictly-higher-priority left-over at one hop, or ``None``."""
        higher_rate = 0.0
        higher_burst = 0.0
        blocking = 0.0
        companions: list[tuple[RoutedFlowState, int]] = []
        level = state.level
        for other, other_index in port.members:
            if other is state:
                continue
            if policy == "fcfs" or other.level == level:
                companions.append((other, other_index))
            elif other.level < level:
                burst = other.burst_at(other_index)
                if not math.isfinite(burst):
                    return None
                higher_rate += other.rate
                higher_burst += burst
            else:
                blocking = max(blocking, other.burst_at(other_index))
        rate = port.capacity - higher_rate
        if rate <= 0 or not math.isfinite(blocking):
            return None
        latency = (port.capacity * port.technology_delay
                   + blocking + higher_burst) / rate
        return _HopLeftover(
            rate=rate,
            latency=latency,
            companions=frozenset(other.name for other, _ in companions),
            members=tuple(companions),
            port=port)

    def _segment(self, segment: "list[_HopLeftover]"
                 ) -> tuple[float, float]:
        """(rate, latency) of the flow's left-over over one segment.

        The hop left-overs concatenate (minimum rate, summed latencies)
        for the same-class aggregate; the constant companion set is then
        charged as cross traffic once, at the segment entrance.
        """
        rate = min(leftover.rate for leftover in segment)
        latency = sum(leftover.latency for leftover in segment)
        entrance = segment[0]
        companion_rate = sum(other.rate for other, _ in entrance.members)
        companion_burst = 0.0
        for other, other_index in entrance.members:
            burst = other.burst_at(other_index)
            if not math.isfinite(burst):
                return 0.0, math.inf
            companion_burst += burst
        segment_rate = rate - companion_rate
        if segment_rate <= 0 or not math.isfinite(latency):
            return 0.0, math.inf
        segment_latency = latency + (companion_burst
                                     + companion_rate * latency) \
            / segment_rate
        return segment_rate, segment_latency
