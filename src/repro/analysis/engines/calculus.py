"""The ``calculus`` engine — the paper's network-calculus bounds.

This engine is a thin wrapper around the reproduction's existing
analysis paths and is **bit-identical** to them by construction:

* scenario-level bounds are the campaign runner's rows, from the same
  :func:`scenario_rows`: the closed form
  :func:`repro.core.multiplexer.single_point_rows` (whose docstring
  states the multi-hop composition rule) on star, dual-switch and tree
  topologies, and on graph topologies the network-level verdict below
  on the scenario's lowered network,
* network-level bounds (:meth:`CalculusEngine.network_bounds`, the
  floor of every bound-vs-simulation check) are
  :class:`repro.core.endtoend.EndToEndAnalysis`, the one network-calculus
  composition, over the lowering's routed template, star or graph; a
  graph lowering also gets its port and per-class backlogs.  An
  overloaded port or a diverged fixed point leaves the flows it cannot
  bound with infinite bounds; nothing is raised.  A lowering keeps each
  policy's verdict on first use, so the campaign rows, the cross-engine
  table and the soundness check of one lowering share one evaluation.

Every other engine is measured against this one: ``calculus`` is the
reference both for soundness regressions and for the tightness ranking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.analysis.engines.base import (EngineResult, NetworkBounds,
                                         ScenarioBoundEngine, scenario_inputs)
from repro.analysis.engines.iteration import RoutedTemplate, network_template
from repro.core.multiplexer import aggregate_flows, single_point_rows
from repro.flows.priorities import PriorityClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engines.base import ScenarioInputs, ScenarioRows
    from repro.campaigns.scenario import Scenario
    from repro.core.multiplexer import ClassAggregate
    from repro.flows.messages import Message
    from repro.topology.graph import GraphTopologySpec
    from repro.topology.network import Network

__all__ = ["CalculusEngine", "scenario_rows"]


def scenario_rows(scenario: "Scenario", policy: str,
                  aggregates: "Mapping[PriorityClass, ClassAggregate]",
                  lowering: "Callable[[], ScenarioInputs]"
                  ) -> dict[PriorityClass, tuple[float, float]]:
    """Per-class ``(bound, backlog_bits)`` of one scenario under ``policy``.

    The one place that picks a scenario's row function.  Graph
    topologies read the ``calculus`` verdict on the scenario's lowered
    network, ``lowering()`` (:meth:`CalculusEngine.network_bounds`: the
    wire-level messages the simulator's frames carry, kept on the
    lowering per policy); every other topology evaluates
    :func:`~repro.core.multiplexer.single_point_rows` on ``aggregates``.
    ``lowering`` is only called on graph topologies, so the closed form
    never lowers or materialises a replicated message set.
    """
    if scenario.topology.kind != "graph":
        return single_point_rows(aggregates, scenario.capacity,
                                 scenario.technology_delay, policy,
                                 scenario.hops)
    verdict = CalculusEngine().network_bounds(lowering(), policy)
    return {cls: (verdict.classes[cls], verdict.backlogs[cls])
            for cls in sorted(verdict.classes)}


class CalculusEngine(ScenarioBoundEngine):
    """Network-calculus bounds, wrapping the pre-engine analysis paths."""

    name = "calculus"

    def class_bounds(self, scenario: "Scenario", policy: str,
                     inputs: "ScenarioInputs | None" = None,
                     rows: "ScenarioRows | None" = None) -> EngineResult:
        """Scenario-level bounds, identical to the campaign runner's rows.

        A caller that already computed the rows (the campaign runner)
        passes them as ``rows``; otherwise they are computed here, from
        ``inputs`` (the scenario is lowered here when it is absent).
        """
        if rows is None:
            if inputs is None:
                inputs = scenario_inputs(scenario)
            rows = scenario_rows(scenario, policy,
                                 aggregate_flows(inputs.unsized),
                                 lambda: inputs)
        return EngineResult.from_mapping(
            self.name, policy,
            {cls: bound for cls, (bound, _) in rows.items()})

    def network_bounds(self, inputs: "ScenarioInputs",
                       policy: str) -> NetworkBounds:
        """Network-level bounds of a lowered workload (:meth:`_bounds`),
        computed once per (lowering, policy) and kept on ``inputs``."""
        verdict = inputs.verdicts.get(policy)
        if verdict is None:
            verdict = inputs.verdicts[policy] = self._bounds(
                policy, inputs.network, inputs.graph_spec, inputs.template)
        return verdict

    def network_class_bounds(self, messages: "Iterable[Message]",
                             policy: str, *, network: "Network",
                             graph_spec: "GraphTopologySpec | None" = None,
                             template: "RoutedTemplate | None" = None
                             ) -> dict[PriorityClass, float]:
        """The class bounds of :meth:`_bounds` on ``network``; the
        messages are routed here unless ``template`` holds their routes."""
        if template is None:
            template = network_template(network, messages)
        return self._bounds(policy, network, graph_spec, template).classes

    @staticmethod
    def _bounds(policy: str, network: "Network",
                graph_spec: "GraphTopologySpec | None",
                template: "RoutedTemplate") -> NetworkBounds:
        """Network-level bounds of ``template``'s flows on ``network``.

        One call of the network-calculus composition,
        :class:`~repro.core.endtoend.EndToEndAnalysis`, on the routed
        template.  A graph lowering also reports every port's and every
        class's backlog bound and the hop count of each class's worst
        flow; a star reports its class bounds only.
        """
        from repro.core.endtoend import EndToEndAnalysis

        outcome = EndToEndAnalysis(network, policy=policy).analyze(template)
        worst = outcome.worst_per_class()
        classes = {cls: bound.total_delay for cls, bound in worst.items()}
        if graph_spec is None:
            return NetworkBounds(classes, {}, {}, {})
        return NetworkBounds(
            classes,
            {(port.node, port.toward): port.backlog_bits
             for port in outcome.ports},
            {cls: len(bound.hops) for cls, bound in worst.items()},
            outcome.class_backlogs)
