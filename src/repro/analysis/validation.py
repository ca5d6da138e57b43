"""E5 — analytic bounds vs simulated worst delays, through the one check.

The paper only reports analytic bounds; a credible reproduction must also
show that they *dominate* what actually happens on the network.  Every
site that does so (this experiment, buffer dimensioning, fuzz cells, the
Monte-Carlo campaign, the report's multi-hop and engine exhibits) runs:

1. :func:`lower` — the unsized messages, their wire-level copies and the
   network (the scenario's graph, else the single-switch star); it is
   defined beside :class:`~repro.analysis.engines.base.ScenarioInputs`,
   away from the simulator, and re-exported here,
2. :func:`engine_bounds` — every selected engine's verdict on the
   wire-level messages, ``calculus`` first,
3. :func:`simulate` — the simulator on the unsized messages of the same
   network; :func:`check` sets each bound beside the simulated worst per
   class, and each port's backlog bound beside its largest queue.

Every comparison uses :func:`within_bound` and :func:`tightness_of`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import units
from repro.analysis.engines import DEFAULT_ENGINE, DEFAULT_ENGINES, get_engine
from repro.analysis.engines.base import (NetworkBounds, ScenarioInputs,
                                         lower, star_for_stations,
                                         wire_level_messages)
from repro.ethernet.network_sim import (EthernetNetworkSimulator,
                                        SimulationResults)
from repro.flows.message_set import MessageSet
from repro.flows.priorities import PriorityClass

__all__ = [
    "TOLERANCE",
    "within_bound",
    "tightness_of",
    "BoundValidationRow",
    "PortValidationRow",
    "Check",
    "lower",
    "engine_bounds",
    "simulate",
    "check",
    "validate_bounds",
    "star_for_stations",
    "wire_level_messages",
]

#: Absolute slack of every "observation within its bound" comparison
#: (seconds for delays, bits for backlogs): float noise, not physics.
TOLERANCE = 1e-9


def within_bound(observed: float, bound: float) -> bool:
    """True when ``bound`` dominates ``observed``, up to :data:`TOLERANCE`."""
    return observed <= bound + TOLERANCE


def tightness_of(observed: float, bound: float) -> float:
    """``observed / bound`` (1.0 = tight, small = loose).

    ``nan`` whenever the ratio is meaningless: a non-positive or infinite
    bound (an unstable configuration has nothing to be tight against) or
    a ``nan`` observation (no samples).  An infinite bound must *not*
    yield ``0.0`` — that would read as "infinitely slack" in aggregates
    that a ``nan`` correctly opts out of.
    """
    if not math.isfinite(bound) or bound <= 0 or math.isnan(observed):
        return math.nan
    return observed / bound


@dataclass(frozen=True)
class BoundValidationRow:
    """One engine's bound vs the simulation for one (policy, class) pair."""

    policy: str
    priority: PriorityClass
    analytic_bound: float
    simulated_worst: float
    simulated_mean: float
    samples: int
    engine: str = DEFAULT_ENGINE

    @property
    def bound_holds(self) -> bool:
        """True when the analytic bound dominates the simulated worst case."""
        return within_bound(self.simulated_worst, self.analytic_bound)

    @property
    def tightness(self) -> float:
        """Simulated worst divided by the bound (:func:`tightness_of`)."""
        return tightness_of(self.simulated_worst, self.analytic_bound)


@dataclass(frozen=True)
class PortValidationRow:
    """A port's analytic backlog bound vs its largest observed queue."""

    policy: str
    #: Transmitting node of the directed port.
    node: str
    #: Neighbour the port transmits toward.
    toward: str
    #: Analytic backlog bound in bits (``inf`` when the port is unstable).
    backlog_bound: float
    #: Largest queue the simulator observed on the port, in bits.
    observed_bits: float

    @property
    def bound_holds(self) -> bool:
        """True when the backlog bound dominates the observed peak."""
        return within_bound(self.observed_bits, self.backlog_bound)


@dataclass(frozen=True)
class Check:
    """The bounds and the simulation of one lowered workload, side by side."""

    #: Every evaluated engine's verdict, ``calculus`` first.
    bounds: dict[str, NetworkBounds]
    #: Per engine, then per class with samples: bound vs simulation.
    rows: tuple[BoundValidationRow, ...]
    #: Per port the ``calculus`` engine bounds, sorted by (node, toward).
    ports: tuple[PortValidationRow, ...]
    #: Simulation events processed and frames dropped.
    events: int
    dropped: int


def engine_bounds(inputs: ScenarioInputs, policy: str,
                  engines: "tuple[str, ...]" = DEFAULT_ENGINES
                  ) -> dict[str, NetworkBounds]:
    """Every engine's verdict on a lowering; the ``calculus`` reference
    (the only one with port bounds) is always evaluated, first."""
    return {name: get_engine(name).network_bounds(inputs, policy)
            for name in dict.fromkeys(DEFAULT_ENGINES + tuple(engines))}


def simulate(inputs: ScenarioInputs, policy: str, *,
             scenario: str = "synchronized", seed: int = 1,
             duration: float = units.ms(320)) -> SimulationResults:
    """Simulate a lowering's unsized messages (routed once per lowering)
    and release the finished model."""
    simulator = EthernetNetworkSimulator(inputs.network, inputs.flows,
                                         policy=policy, scenario=scenario,
                                         seed=seed)
    results = simulator.run(duration=duration)
    simulator.release()
    return results


def check(inputs: ScenarioInputs, policy: str, *,
          engines: "tuple[str, ...]" = DEFAULT_ENGINES,
          scenario: str = "synchronized", seed: int = 1,
          duration: float = units.ms(320)) -> Check:
    """Bound and simulate one lowering under ``policy``, side by side."""
    bounds = engine_bounds(inputs, policy, engines)
    results = simulate(inputs, policy, scenario=scenario, seed=seed,
                       duration=duration)
    summaries = [(cls, results.class_summary(cls))
                 for cls in sorted(PriorityClass)]
    rows = tuple(
        BoundValidationRow(
            policy=policy, priority=cls,
            analytic_bound=verdict.classes.get(cls, math.inf),
            simulated_worst=summary.maximum,
            simulated_mean=summary.mean, samples=summary.count,
            engine=name)
        for name, verdict in bounds.items()
        for cls, summary in summaries if summary.count)
    ports = tuple(
        PortValidationRow(
            policy=policy, node=node, toward=toward, backlog_bound=bits,
            observed_bits=results.max_queue_bits.get(f"{node}->{toward}",
                                                     0.0))
        for (node, toward), bits in sorted(
            bounds[DEFAULT_ENGINE].ports.items()))
    return Check(bounds=bounds, rows=rows, ports=ports,
                 events=results.events_processed,
                 dropped=results.frames_dropped)


def validate_bounds(message_set: MessageSet,
                    capacity: float = units.mbps(10),
                    technology_delay: float = units.us(16),
                    simulation_duration: float = units.ms(320),
                    seed: int = 1,
                    policies: tuple[str, ...] = ("fcfs", "strict-priority")
                    ) -> list[BoundValidationRow]:
    """Run the bound-vs-simulation validation (experiment E5).

    An overloaded link leaves its classes unbounded (``inf`` bound,
    ``nan`` tightness); the simulation still runs.
    """
    inputs = lower(message_set, capacity=capacity,
                   technology_delay=technology_delay)
    return [row for policy in policies
            for row in check(inputs, policy, seed=seed,
                             duration=simulation_duration).rows]
