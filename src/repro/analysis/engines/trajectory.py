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

The final composition reads the per-port partition of the fixed point
(:func:`~repro.analysis.engines.iteration.port_levels`) once per
``(port, priority level)``: the strictly-higher sums and the blocking
term give the level's left-over ``(rate, latency)``, and the level's
own members form its same-class group.  None of them depends on which
member of the level asks, because a flow never interferes with itself
as higher or lower traffic.  A flow's companions are its group minus
itself, and since the flow belongs to every group on its path,
comparing groups delimits the same segments as comparing companion
sets.

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


@dataclass(frozen=True)
class _LevelGroup:
    """One priority level's share of one port after the fixed point."""

    #: Left-over ``(rate, latency)`` after strictly-higher-priority
    #: interference and lower-priority blocking; ``None`` when unbounded.
    leftover: tuple[float, float] | None
    #: Names of the level's flows at the port (the segment key).
    names: frozenset[str]
    #: Rates and inflated bursts of the level's flows.
    rates: list[float]
    bursts: list[float]


#: The level group a flow belongs to at one hop, and its position in it.
_Hop = tuple[_LevelGroup, int]


def _without(values: list[float], position: int) -> list[float]:
    """``values`` minus the flow's own entry: its companions' values."""
    return values[:position] + values[position + 1:]


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
        run_fixed_point(states, ports,
                        lambda port: self._port_delays(port, policy),
                        template.schedule)
        paths: dict[int, list[_Hop]] = {
            id(state): [None] * len(state.hops) for state in states}
        for port in ports:
            for group, members in self._level_groups(port, policy):
                for position, (state, index) in enumerate(members):
                    paths[id(state)][index] = (group, position)
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

        The iterated state uses the calculus per-hop left-over (every
        competitor paid at the hop), which keeps the fixed point
        monotone; the segment concatenation below only sharpens the
        final composition, never the iterated state.
        """
        for (state, index), (_, _, delay) in zip(
                port.members, port_leftovers(port, policy)):
            state.delays[index] = delay

    # -- final composition ---------------------------------------------------

    @staticmethod
    def _level_groups(port: PortContext, policy: str
                      ) -> list[tuple[_LevelGroup, list]]:
        """Every level's group at one port, with its ``(state, hop)``s.

        Under FIFO every flow at the port is same-class, so the port
        holds a single group with no higher or blocking traffic.
        """
        groups = []
        for level in port_levels(port, policy):
            higher_burst = math.fsum(level.higher_bursts)
            rate = port.capacity - math.fsum(level.higher_rates)
            leftover = None
            if rate > 0 and math.isfinite(higher_burst) \
                    and math.isfinite(level.blocking):
                leftover = (rate, (port.capacity * port.technology_delay
                                   + level.blocking + higher_burst) / rate)
            members = [port.members[position] for position in level.positions]
            groups.append((_LevelGroup(
                leftover=leftover,
                names=frozenset(state.name for state, _ in members),
                rates=level.rates, bursts=level.bursts), members))
        return groups

    def _end_to_end(self, state: RoutedFlowState,
                    path: list[_Hop]) -> float:
        """Segment-concatenated trajectory bound for one routed flow."""
        if state.diverged:
            return math.inf
        if any(group.leftover is None for group, _ in path):
            return math.inf

        total_latency = 0.0
        slowest_segment = math.inf
        start = 0
        while start < len(path):
            stop = start
            while stop + 1 < len(path) and \
                    path[stop + 1][0].names == path[start][0].names:
                stop += 1
            segment_rate, segment_latency = self._segment(
                path[start:stop + 1])
            if segment_rate <= 0 or not math.isfinite(segment_latency):
                return math.inf
            total_latency += segment_latency
            slowest_segment = min(slowest_segment, segment_rate)
            start = stop + 1
        if state.rate > slowest_segment:
            return math.inf

        # Store-and-forward: each relaying hop re-serialises the burst.
        packetisation = 0.0
        for group, position in path[:-1]:
            local_rate = group.leftover[0] - math.fsum(
                _without(group.rates, position))
            if local_rate <= 0:
                return math.inf
            packetisation += state.burst / local_rate
        propagation = math.fsum(state.propagation)
        return (total_latency + state.burst / slowest_segment
                + packetisation + propagation)

    @staticmethod
    def _segment(segment: list[_Hop]) -> tuple[float, float]:
        """(rate, latency) of the flow's left-over over one segment.

        The hop left-overs concatenate (minimum rate, summed latencies)
        for the same-class aggregate; the constant companion set is then
        charged as cross traffic once, at the segment entrance.
        """
        rate = min(group.leftover[0] for group, _ in segment)
        latency = math.fsum(group.leftover[1] for group, _ in segment)
        entrance, position = segment[0]
        companion_rate = math.fsum(_without(entrance.rates, position))
        companion_burst = math.fsum(_without(entrance.bursts, position))
        if not math.isfinite(companion_burst):
            return 0.0, math.inf
        segment_rate = rate - companion_rate
        if segment_rate <= 0 or not math.isfinite(latency):
            return 0.0, math.inf
        segment_latency = latency + (companion_burst
                                     + companion_rate * latency) \
            / segment_rate
        return segment_rate, segment_latency
