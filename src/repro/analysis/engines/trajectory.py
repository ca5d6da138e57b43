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
hop's delay is the plain per-hop blind-multiplexing left-over bound
(:func:`~repro.analysis.engines.iteration.port_leftovers`), and the
segment concatenation is applied in the final
end-to-end composition only — the iteration stays monotone and either
settles or flags the flow unstable.

Each port evaluation partitions its members once
(:func:`~repro.analysis.engines.iteration.port_levels`), and the rule
keeps the partition of the port's last evaluation: that evaluation saw
the final upstream values, the same argument the feed-forward schedule
rests on.  The final composition reads that partition once per ``(port,
priority level)``: the strictly-higher sums and the blocking term give
the level's left-over ``(rate, latency)``, and the level's own members
form its same-class group.  None of them depends on which member of the
level asks, because a flow never interferes with itself as higher or
lower traffic.  A flow's companions are its group minus itself; their
rate and burst sums are taken once per member and group.  Since the
flow belongs to every group on its path, comparing groups (by an
interned key, the names of their members in port order) delimits the
same segments as comparing companion sets.

Under FIFO every competing flow counts as same-class, so the engine
degenerates to blind-multiplexing concatenation per segment; at a
single multiplexing point it essentially matches the calculus bound,
and on longer paths the ranking experiment shows where paying bursts
per segment beats paying them per hop.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from repro.analysis.engines.base import ScenarioBoundEngine
from repro.analysis.engines.iteration import (PortContext, RoutedFlowState,
                                              RoutedTemplate,
                                              network_template,
                                              port_leftovers, port_levels,
                                              run_fixed_point)
from repro.flows.priorities import PriorityClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flows.messages import Message
    from repro.topology.graph import GraphTopologySpec
    from repro.topology.network import Network

__all__ = ["TrajectoryEngine"]


#: A flow's share of its level group at one hop, after the fixed point:
#: the group's interned key (equal keys, same companions), the level's
#: left-over ``(rate, latency)`` after strictly-higher-priority
#: interference and lower-priority blocking, and the rate and
#: inflated-burst sums of the flow's companions in the group.
_Hop = tuple[tuple[str, ...], float, float, float, float]


class TrajectoryEngine(ScenarioBoundEngine):
    """Trajectory-approach bound with per-segment burst accounting."""

    name = "trajectory"

    def network_class_bounds(self, messages: "Iterable[Message]",
                             policy: str, *, network: "Network",
                             graph_spec: "GraphTopologySpec | None" = None,
                             template: RoutedTemplate | None = None
                             ) -> dict[PriorityClass, float]:
        """Per-class worst of the per-flow trajectory compositions."""
        if template is None:
            template = network_template(network, messages)
        states, ports = template.instantiate()
        if not states:
            return {}
        if not run_fixed_point(states, ports,
                               lambda port: self._port_delays(port, policy),
                               template.schedule):
            # An unsettled run may end on an accumulation that came
            # after the ports' last evaluations: partition afresh.
            for port in ports:
                port.levels = port_levels(port, policy)
        paths: dict[int, list[_Hop | None]] = {
            id(state): [None] * len(state.hops) for state in states}
        keys: dict[tuple[str, ...], tuple[str, ...]] = {}
        for port in ports:
            for level in port.levels:
                higher_burst = math.fsum(level.higher_bursts)
                rate = port.capacity - math.fsum(level.higher_rates)
                if not (rate > 0 and math.isfinite(higher_burst)
                        and math.isfinite(level.blocking)):
                    continue  # unbounded: the hop stays ``None``
                latency = (port.capacity * port.technology_delay
                           + level.blocking + higher_burst) / rate
                members = [port.members[position]
                           for position in level.positions]
                key = tuple([state.name for state, _ in members])
                key = keys.setdefault(key, key)
                rates, bursts = level.rates, level.bursts
                for own, (state, index) in enumerate(members):
                    paths[id(state)][index] = (
                        key, rate, latency,
                        math.fsum(rates[:own] + rates[own + 1:]),
                        math.fsum(bursts[:own] + bursts[own + 1:]))
        mapping: dict[PriorityClass, float] = {}
        for state in states:
            delay = self._end_to_end(state, paths[id(state)])
            previous = mapping.get(state.priority, 0.0)
            mapping[state.priority] = max(previous, delay)
        return mapping

    # -- upstream iteration --------------------------------------------------

    @staticmethod
    def _port_delays(port: PortContext, policy: str) -> None:
        """Per-hop left-over delays used for upstream burst inflation.

        The iterated state uses the per-hop blind-multiplexing left-over
        (every competitor paid at the hop), which keeps the fixed point
        monotone; the segment concatenation below only sharpens the
        final composition, never the iterated state.
        """
        port.levels = port_levels(port, policy)
        for (state, index), (_, _, delay) in zip(
                port.members, port_leftovers(port, port.levels)):
            state.delays[index] = delay

    # -- final composition ---------------------------------------------------

    @staticmethod
    def _end_to_end(state: RoutedFlowState,
                    path: "list[_Hop | None]") -> float:
        """Segment-concatenated trajectory bound for one routed flow.

        Over each segment the hop left-overs concatenate (minimum rate,
        summed latencies) for the same-class aggregate, and the constant
        companion set is charged as cross traffic once, at the segment
        entrance.
        """
        if state.diverged or None in path:
            return math.inf
        total_latency = 0.0
        slowest_segment = math.inf
        count = len(path)
        start = 0
        while start < count:
            key, rate, latency, companion_rate, companion_burst = path[start]
            stop = start + 1
            while stop < count and path[stop][0] is key:
                stop += 1
            if stop > start + 1:  # else the entrance's own rate and latency
                segment = path[start:stop]
                rate = min(hop[1] for hop in segment)
                latency = math.fsum(hop[2] for hop in segment)
            segment_rate = rate - companion_rate
            if not math.isfinite(companion_burst) or segment_rate <= 0 \
                    or not math.isfinite(latency):
                return math.inf
            segment_latency = latency + (companion_burst
                                         + companion_rate * latency) \
                / segment_rate
            if not math.isfinite(segment_latency):
                return math.inf
            total_latency += segment_latency
            slowest_segment = min(slowest_segment, segment_rate)
            start = stop
        if state.rate > slowest_segment:
            return math.inf

        # Store-and-forward: each relaying hop re-serialises the burst.
        packetisation = 0.0
        for _, rate, _, companion_rate, _ in path[:-1]:
            local_rate = rate - companion_rate
            if local_rate <= 0:
                return math.inf
            packetisation += state.burst / local_rate
        propagation = math.fsum(state.propagation)
        return (total_latency + state.burst / slowest_segment
                + packetisation + propagation)
