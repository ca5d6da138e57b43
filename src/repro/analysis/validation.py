"""E5 — analytic bounds vs simulated worst-case delays.

The paper only reports analytic bounds.  A credible reproduction must also
show that those bounds *dominate* what actually happens on the network, so
this experiment:

1. builds the single-switch star topology of the case study and routes every
   message through it,
2. computes the per-flow end-to-end bounds with
   :class:`repro.core.endtoend.EndToEndAnalysis` (FCFS and strict priority),
3. simulates the same network with
   :class:`repro.ethernet.EthernetNetworkSimulator` under the adversarial
   *synchronised release* scenario,
4. reports, per priority class, the analytic worst bound, the worst
   simulated delay and whether the bound holds (it must).

The simulated values are typically well below the bounds (the analysis is a
worst case over every arrival pattern the shapers allow), but they follow the
same ordering across classes and policies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.core.endtoend import EndToEndAnalysis
from repro.ethernet.frame import wire_burst
from repro.ethernet.network_sim import EthernetNetworkSimulator
from repro.flows.message_set import MessageSet
from repro.flows.messages import Message
from repro.flows.priorities import PriorityClass
from repro.topology.builders import single_switch_star
from repro.topology.graph import GraphLink, GraphNode, GraphTopologySpec
from repro.topology.network import Network

__all__ = [
    "BoundValidationRow",
    "validate_bounds",
    "star_for_message_set",
    "star_for_stations",
    "wire_level_messages",
]


def wire_level_messages(message_set: MessageSet) -> list[Message]:
    """Copies of the messages sized on their on-wire burst.

    The simulator transmits Ethernet frames (padding, headers, preamble and
    inter-frame gap included), so the analytic side of the validation must
    use the same on-wire sizes; otherwise the simulated delays of very small
    messages (padded to the 64-byte Ethernet minimum) could exceed a bound
    computed from their 2-byte payload.
    """
    return [message.with_size(wire_burst(message)) for message in message_set]


@dataclass(frozen=True)
class BoundValidationRow:
    """Bound vs simulation for one (policy, priority class) pair."""

    policy: str
    priority: PriorityClass
    analytic_bound: float
    simulated_worst: float
    simulated_mean: float
    samples: int

    @property
    def bound_holds(self) -> bool:
        """True when the analytic bound dominates the simulated worst case."""
        return self.simulated_worst <= self.analytic_bound + 1e-9

    @property
    def tightness(self) -> float:
        """Simulated worst divided by the bound (1.0 = tight, small = loose)."""
        if self.analytic_bound <= 0:
            return float("nan")
        return self.simulated_worst / self.analytic_bound


def star_for_message_set(message_set: MessageSet,
                         capacity: float = units.mbps(10),
                         technology_delay: float = units.us(16)) -> Network:
    """The single-switch star connecting every station of a message set."""
    stations = message_set.stations()
    network = single_switch_star(station_count=len(stations),
                                 capacity=capacity,
                                 technology_delay=technology_delay)
    # ``single_switch_star`` names stations station-00..station-NN in the
    # same scheme as the workload generator, so the names line up; assert it
    # to fail fast if a custom message set uses different names.
    missing = set(stations) - set(network.stations)
    if missing:
        raise ValueError(
            f"message-set stations {sorted(missing)} are not covered by the "
            f"star topology; build the topology explicitly for custom names")
    return network


def star_for_stations(stations: "list[str] | tuple[str, ...]",
                      capacity: float,
                      technology_delay: float) -> Network:
    """A single-switch star over arbitrary station names.

    Unlike :func:`star_for_message_set` this accepts any station-name
    scheme (the fuzz generator's replicated workloads use ``-rk``
    suffixes the canonical builders do not know about), so it is the
    network behind every fuzz cell and the star path of the bound
    engines.
    """
    nodes = [GraphNode("switch-0", "switch",
                       technology_delay=float(technology_delay))]
    nodes.extend(GraphNode(station, "end-system") for station in stations)
    links = tuple(GraphLink(station, "switch-0", rate=capacity)
                  for station in stations)
    return GraphTopologySpec(name=f"fuzz-star-{len(stations)}",
                             nodes=tuple(nodes), links=links).to_network()


def validate_bounds(message_set: MessageSet,
                    capacity: float = units.mbps(10),
                    technology_delay: float = units.us(16),
                    simulation_duration: float = units.ms(320),
                    seed: int = 1,
                    policies: tuple[str, ...] = ("fcfs", "strict-priority")
                    ) -> list[BoundValidationRow]:
    """Run the bound-vs-simulation validation (experiment E5)."""
    network = star_for_message_set(message_set, capacity=capacity,
                                   technology_delay=technology_delay)
    analysis_messages = wire_level_messages(message_set)
    rows: list[BoundValidationRow] = []
    for policy in policies:
        analysis = EndToEndAnalysis(network, policy=policy)
        analytic = analysis.analyze(analysis_messages)
        worst_per_class = {cls: bound.total_delay
                           for cls, bound in analytic.worst_per_class().items()}

        simulator = EthernetNetworkSimulator(
            network, message_set.messages, policy=policy,
            scenario="synchronized", seed=seed)
        results = simulator.run(duration=simulation_duration)

        for cls, analytic_bound in sorted(worst_per_class.items()):
            summary = results.class_summary(cls)
            if summary.count == 0:
                continue
            rows.append(BoundValidationRow(
                policy=policy,
                priority=cls,
                analytic_bound=analytic_bound,
                simulated_worst=summary.maximum,
                simulated_mean=summary.mean,
                samples=summary.count))
    return rows
