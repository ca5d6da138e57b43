"""The ``BoundEngine`` protocol and its shared value types.

A bound engine is one self-contained way of bounding worst-case
response times on the reproduced architecture.  Every engine exposes
the same three-method surface:

* ``name`` — the registry key (``"calculus"``, ``"holistic"``,
  ``"trajectory"``),
* ``supports(scenario)`` — whether the engine can bound a campaign
  :class:`~repro.campaigns.scenario.Scenario`,
* ``class_bounds(scenario, policy)`` — per-priority-class worst-case
  delay bounds as an :class:`EngineResult`.

``class_bounds`` also takes an optional ``inputs=`` — the
:func:`scenario_inputs` lowering of the scenario — so a caller that
evaluates several engines and policies on one scenario (the campaign
runner's ``--engine`` sweep) lowers and routes it once: every
evaluation shares one :class:`~repro.topology.network.Network` and one
:class:`~repro.analysis.engines.iteration.RoutedTemplate`.  It also
takes an optional ``rows=`` — the scenario's campaign rows for that
policy, from :func:`~repro.analysis.engines.calculus.scenario_rows` —
so an engine whose verdict *is* those rows (``calculus``) does not
compute them a second time.

Engines additionally expose ``network_class_bounds(messages, policy,
network=..., graph_spec=..., template=...)`` for callers that already
hold a concrete network, so the engine's math is applied to *exactly*
the network the simulator runs on; ``template`` is the routed template
of those messages on that network, when the caller has one.
``network_bounds(inputs, policy)`` takes a :class:`ScenarioInputs`
lowering instead and returns a :class:`NetworkBounds`; it is what the
soundness check (:func:`repro.analysis.validation.check`) asks.

Results carry per-class bounds with stability flags and a canonical-JSON
fingerprint (:func:`repro.store.fingerprint`), so two processes agree on
the identity of an engine verdict byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import (TYPE_CHECKING, Iterable, Mapping, NamedTuple, Protocol,
                    runtime_checkable)

from repro.analysis.engines.iteration import RoutedTemplate, network_template
from repro.ethernet.frame import wire_burst
from repro.flows.priorities import PriorityClass
from repro.store import fingerprint
from repro.topology.graph import GraphLink, GraphNode, GraphTopologySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.campaigns.scenario import Scenario
    from repro.flows.flow import Flow
    from repro.flows.message_set import MessageSet
    from repro.flows.messages import Message
    from repro.topology.network import Network

    #: ``{class: (bound, backlog bits)}`` of one scenario and policy.
    ScenarioRows = Mapping[PriorityClass, tuple[float, float]]

__all__ = [
    "EngineClassBound",
    "EngineResult",
    "EngineSpec",
    "BoundEngine",
    "ScenarioBoundEngine",
    "ScenarioInputs",
    "NetworkBounds",
    "scenario_inputs",
    "present_classes",
]


@dataclass(frozen=True)
class EngineClassBound:
    """One priority class' verdict from one engine run."""

    priority: PriorityClass
    #: Worst-case delay bound in seconds; ``inf`` when the engine could
    #: not bound the class (overload, diverged fixed point).
    bound: float
    #: ``False`` exactly when ``bound`` is not finite.
    stable: bool


@dataclass(frozen=True)
class EngineResult:
    """Per-class bounds of one ``(engine, scenario, policy)`` evaluation."""

    engine: str
    policy: str
    bounds: tuple[EngineClassBound, ...]

    def by_class(self) -> dict[PriorityClass, float]:
        """``{priority: bound}`` over every class the engine saw."""
        return {row.priority: row.bound for row in self.bounds}

    def stable_by_class(self) -> dict[PriorityClass, bool]:
        """``{priority: stable}`` over every class the engine saw."""
        return {row.priority: row.stable for row in self.bounds}

    def bound_for(self, priority: PriorityClass,
                  default: float = math.inf) -> float:
        """The bound of one class (``default`` when the class is absent)."""
        for row in self.bounds:
            if row.priority is priority:
                return row.bound
        return default

    @property
    def stable(self) -> bool:
        """True when every class the engine saw has a finite bound."""
        return all(row.stable for row in self.bounds)

    def to_payload(self) -> dict:
        """JSON-serialisable form (priority by enum name, sorted)."""
        return {
            "engine": self.engine,
            "policy": self.policy,
            "bounds": [{
                "priority": row.priority.name,
                "bound": row.bound,
                "stable": row.stable,
            } for row in self.bounds],
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "EngineResult":
        """Rebuild a result from :meth:`to_payload` output."""
        return cls(
            engine=payload["engine"],
            policy=payload["policy"],
            bounds=tuple(EngineClassBound(
                priority=PriorityClass[row["priority"]],
                bound=float(row["bound"]),
                stable=bool(row["stable"]),
            ) for row in payload["bounds"]))

    def fingerprint(self) -> str:
        """Canonical-JSON SHA-256 of the result (machine-independent)."""
        return fingerprint(self.to_payload())

    @classmethod
    def from_mapping(cls, engine: str, policy: str,
                     mapping: Mapping[PriorityClass, float]
                     ) -> "EngineResult":
        """Build a result from ``{priority: bound}``, sorted by class."""
        return cls(
            engine=engine,
            policy=policy,
            bounds=tuple(EngineClassBound(
                priority=priority,
                bound=float(mapping[priority]),
                stable=math.isfinite(mapping[priority]),
            ) for priority in sorted(mapping)))


@dataclass(frozen=True)
class EngineSpec:
    """Value-level engine selection, attachable to campaign/fuzz cells.

    Being a frozen dataclass it canonicalises (and therefore
    fingerprints) cleanly, so a cell keyed on an ``EngineSpec`` gets a
    distinct store identity per engine.
    """

    name: str = "calculus"

    def resolve(self) -> "BoundEngine":
        """The registered engine this spec names.

        Raises
        ------
        UnknownEngineError
            If no engine of that name is registered.
        """
        from repro.analysis.engines import get_engine
        return get_engine(self.name)


@runtime_checkable
class BoundEngine(Protocol):
    """Protocol every registered WCRT bound engine implements."""

    name: str

    def supports(self, scenario: "Scenario") -> bool:
        """Whether the engine can bound ``scenario``."""
        ...  # pragma: no cover - protocol stub

    def class_bounds(self, scenario: "Scenario", policy: str,
                     inputs: "ScenarioInputs | None" = None,
                     rows: "ScenarioRows | None" = None) -> EngineResult:
        """Per-class worst-case delay bounds for one scenario/policy.

        ``inputs`` is the scenario's :func:`scenario_inputs` lowering
        and ``rows`` its campaign rows under ``policy``, when the caller
        already holds them; engines that do not use them ignore them.
        """
        ...  # pragma: no cover - protocol stub


def present_classes(messages: Iterable) -> list[PriorityClass]:
    """The sorted priority classes that actually carry traffic."""
    from repro.core.multiplexer import priority_of
    return sorted({priority_of(message) for message in messages})


@dataclass
class ScenarioInputs:
    """One lowered workload (:func:`lower`),
    shared by every engine, policy and simulation; each routing is made
    on first use and kept."""

    #: The messages the stations send, as the workload states them.
    unsized: "list[Message]"
    #: ``unsized`` sized at wire level (what every bound engine analyses).
    messages: "list[Message]"
    network: "Network"
    #: The graph topology behind ``network``; ``None`` for stars.
    graph_spec: "GraphTopologySpec | None"
    #: The ``calculus`` engine's verdict per policy, kept on first use
    #: by :meth:`CalculusEngine.network_bounds
    #: <repro.analysis.engines.calculus.CalculusEngine.network_bounds>`.
    verdicts: "dict[str, NetworkBounds]" = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def template(self) -> RoutedTemplate:
        """``messages`` routed on ``network`` (:func:`network_template`)."""
        return network_template(self.network, self.messages)

    @cached_property
    def flows(self) -> "list[Flow]":
        """``unsized`` routed on ``network``: the simulator's flows."""
        return self.network.route_flows(self.unsized)


class NetworkBounds(NamedTuple):
    """One engine's verdict on one lowered network under one policy."""

    #: ``{class: worst-case delay bound}``; ``inf`` when unbounded.
    classes: dict[PriorityClass, float]
    #: ``{(node, toward): backlog bound in bits}``; empty when not bounded.
    ports: dict[tuple[str, str], float]
    #: Switch hops of each class' worst flow; empty when not known.
    hops: dict[PriorityClass, int]
    #: ``{class: worst per-port queue bound in bits}``; empty when not
    #: bounded.
    backlogs: dict[PriorityClass, float]


def wire_level_messages(message_set: "Iterable[Message]") -> list[Message]:
    """Copies of the messages sized on their on-wire burst.

    The simulator transmits Ethernet frames (padding, headers, preamble and
    inter-frame gap included), so the analytic side of the validation must
    use the same on-wire sizes; otherwise the simulated delays of very small
    messages (padded to the 64-byte Ethernet minimum) could exceed a bound
    computed from their 2-byte payload.
    """
    return [message.with_size(wire_burst(message)) for message in message_set]


def star_for_stations(stations: "list[str] | tuple[str, ...]",
                      capacity: float,
                      technology_delay: float) -> "Network":
    """A single-switch star over arbitrary station names (``-rk``
    replica suffixes included): :func:`lower`'s network without a graph."""
    nodes = [GraphNode("switch-0", "switch",
                       technology_delay=float(technology_delay))]
    nodes.extend(GraphNode(station, "end-system") for station in stations)
    links = tuple(GraphLink(station, "switch-0", rate=capacity)
                  for station in stations)
    return GraphTopologySpec(name=f"fuzz-star-{len(stations)}",
                             nodes=tuple(nodes), links=links).to_network()


def lower(message_set: "MessageSet", *, capacity: float,
          technology_delay: float,
          graph_spec: GraphTopologySpec | None = None) -> ScenarioInputs:
    """The one lowering of a workload, shared by its bounds and simulations.

    The network is ``graph_spec``'s, else the star over the message set's
    stations.  The engines bound the wire-level messages; the simulator
    runs the unsized ones and frames them itself (wire-level sizes would
    pay the framing overhead twice).  Simulator-free, so the engines'
    code-version closure covers it and the framing.
    """
    if graph_spec is not None:
        network = graph_spec.to_network()
    else:
        network = star_for_stations(message_set.stations(), capacity,
                                    technology_delay)
    return ScenarioInputs(message_set.messages,
                          wire_level_messages(message_set), network,
                          graph_spec)


def scenario_inputs(scenario: "Scenario",
                    message_set: "MessageSet | None" = None
                    ) -> ScenarioInputs:
    """The :func:`lower` of one scenario: its graph topology, or the
    single-switch star for every other kind.

    ``message_set`` is the scenario's workload when the caller already
    holds it built; otherwise the workload is built here.
    """
    graph_spec = None
    if scenario.topology.kind == "graph":
        graph_spec = scenario.topology.build_graph(
            scenario.workload.total_stations, scenario.capacity,
            scenario.technology_delay)
    if message_set is None:
        message_set = scenario.workload.build()
    return lower(message_set, capacity=scenario.capacity,
                 technology_delay=scenario.technology_delay,
                 graph_spec=graph_spec)


class ScenarioBoundEngine:
    """Shared scenario plumbing of the concrete engines.

    Subclasses implement :meth:`network_class_bounds`; this base class
    lowers a :class:`~repro.campaigns.scenario.Scenario` to wire-level
    messages plus a concrete network and wraps the result.
    """

    name = "abstract"

    def supports(self, scenario: "Scenario") -> bool:
        """Every shipped engine handles every registered topology kind."""
        return True

    def class_bounds(self, scenario: "Scenario", policy: str,
                     inputs: ScenarioInputs | None = None,
                     rows: "ScenarioRows | None" = None) -> EngineResult:
        """Per-class bounds of one scenario/policy cell.

        The scenario is lowered here unless ``inputs`` already carries
        its :func:`scenario_inputs`; ``rows`` is not used.
        """
        if inputs is None:
            inputs = scenario_inputs(scenario)
        return EngineResult.from_mapping(
            self.name, policy, self.network_bounds(inputs, policy).classes)

    def network_bounds(self, inputs: ScenarioInputs,
                       policy: str) -> NetworkBounds:
        """The engine's verdict on a lowered workload (class bounds only)."""
        return NetworkBounds(self.network_class_bounds(
            inputs.messages, policy, network=inputs.network,
            graph_spec=inputs.graph_spec, template=inputs.template),
            {}, {}, {})

    def network_class_bounds(self, messages: "Iterable[Message]",
                             policy: str, *, network: "Network",
                             graph_spec: "GraphTopologySpec | None" = None,
                             template: RoutedTemplate | None = None
                             ) -> dict[PriorityClass, float]:
        """Per-class bounds on a concrete routed network (abstract)."""
        raise NotImplementedError  # pragma: no cover - abstract
