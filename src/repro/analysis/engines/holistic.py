"""The ``holistic`` engine — iterative busy-period response-time analysis.

Classic holistic schedulability analysis (Tindell & Clark) adapted to
the switched-Ethernet models of this reproduction: each output port is
treated as a non-preemptive static-priority (or FIFO) server, the
worst-case *level-p busy period* at each port bounds the queuing of
every class-``p`` frame crossing it, and an outer fixed point inflates
each flow's burst at hop *k* by its upstream response time (holistic
"jitter inheritance").

Per port and class ``p`` the busy-period recurrence is::

    q_{n+1} = (B_{<=p} + blocking + R_{<=p} * q_n) / C

with ``B``/``R`` the burst/rate sums over the classes at priority ``p``
and higher (every class under FIFO), and ``blocking`` the largest
lower-priority burst (non-preemptive frame in service; zero under
FIFO).  The sequence is monotone from zero, so it either settles, or
``R_{<=p} >= C`` and the class is flagged unstable (``inf``).  The hop
delay is the limit plus the relaying latency ``t_techno``.

Because the denominator ``C - R_{<=p}`` also pays the class' *own*
aggregate rate (which the paper's multiplexer bound, the calculus
per-hop rule, does not), each hop bound dominates the calculus hop
bound — the engine is sound wherever
the calculus engine is, and the tightness ranking shows what that extra
interference term costs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from repro.analysis.engines.base import ScenarioBoundEngine
from repro.analysis.engines.iteration import (PortLevel, RoutedPort,
                                              RoutedRun, RoutedTemplate,
                                              network_template,
                                              port_levels, run_fixed_point)
from repro.flows.priorities import PriorityClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flows.messages import Message
    from repro.topology.graph import GraphTopologySpec
    from repro.topology.network import Network

__all__ = ["HolisticEngine"]

#: Inner busy-period iterations before falling back to the closed-form
#: limit ``work / (C - rate)`` (the monotone sequence's supremum).
_BUSY_PERIOD_ITERATIONS = 64


def _busy_period(work: float, rate: float, capacity: float) -> float:
    """Limit of the level-``p`` busy-period recurrence, or ``inf``.

    ``work`` is the burst-plus-blocking backlog served at ``capacity``
    while interference keeps arriving at ``rate``; ``rate >= capacity``
    means the recurrence diverges (overload) and the class is unbounded.
    """
    if not math.isfinite(work):
        return math.inf
    if rate >= capacity:
        return math.inf
    backlog = work / capacity
    for _ in range(_BUSY_PERIOD_ITERATIONS):
        refined = (work + rate * backlog) / capacity
        if refined - backlog <= 1e-12 * max(backlog, 1e-9):
            return refined
        backlog = refined
    return work / (capacity - rate)


class HolisticEngine(ScenarioBoundEngine):
    """Iterative fixed-point response-time analysis per output port."""

    name = "holistic"

    def network_class_bounds(self, messages: "Iterable[Message]",
                             policy: str, *, network: "Network",
                             graph_spec: "GraphTopologySpec | None" = None,
                             template: RoutedTemplate | None = None
                             ) -> dict[PriorityClass, float]:
        """Per-class worst of the per-flow holistic fixed points."""
        if template is None:
            template = network_template(network, messages)
        if not template.flows:
            return {}
        run = template.instantiate()
        run_fixed_point(template, run,
                        lambda template, run, port: self._port_delays(
                            template, run, port, policy),
                        template.schedule)
        mapping: dict[PriorityClass, float] = {}
        for flow, priority in enumerate(template.priorities):
            delay = self._end_to_end(template, run, flow)
            previous = mapping.get(priority, 0.0)
            mapping[priority] = max(previous, delay)
        return mapping

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _port_delays(template: RoutedTemplate, run: RoutedRun,
                     port: RoutedPort, policy: str) -> list[PortLevel]:
        """Refresh every member's delay at one port from current bursts.

        A level's busy period covers the more urgent members and the
        level itself; every member of the level gets its delay.
        """
        levels = port_levels(template, run, port, policy)
        members, delays = port.members, run.delays
        for level in levels:
            work = math.fsum(level.higher_bursts + level.bursts)
            rate = math.fsum(level.higher_rates + level.rates)
            delay = _busy_period(work + level.blocking, rate,
                                 port.capacity) + port.technology_delay
            for position in level.positions:
                delays[members[position]] = delay
        return levels

    @staticmethod
    def _end_to_end(template: RoutedTemplate, run: RoutedRun,
                    flow: int) -> float:
        """Sum of a flow's per-hop busy-period delays plus propagation."""
        if run.diverged[flow]:
            return math.inf
        delays, propagation = run.delays, template.propagation
        total = 0.0
        for slot in range(template.starts[flow], template.starts[flow + 1]):
            delay = delays[slot]
            if not math.isfinite(delay):
                return math.inf
            total += delay + propagation[slot]
        return total
