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
  :class:`repro.core.endtoend.EndToEndAnalysis` on stars and
  ``GraphPathAnalysis`` over the lowering's routed template on graphs,
  with the graph's port and per-class backlogs.  A lowering keeps each
  policy's verdict on first use, so the campaign rows, the cross-engine
  table and the soundness check of one lowering share one evaluation.

Every other engine is measured against this one: ``calculus`` is the
reference both for soundness regressions and for the tightness ranking.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.analysis.engines.base import (EngineResult, NetworkBounds,
                                         ScenarioBoundEngine,
                                         present_classes, scenario_inputs)
from repro.core.multiplexer import aggregate_flows, single_point_rows
from repro.errors import UnstableSystemError
from repro.flows.priorities import PriorityClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engines.base import ScenarioInputs, ScenarioRows
    from repro.analysis.engines.iteration import RoutedTemplate
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
                inputs.messages, policy, inputs.network, inputs.graph_spec,
                inputs.template if inputs.graph_spec is not None else None)
        return verdict

    def network_class_bounds(self, messages: "Iterable[Message]",
                             policy: str, *, network: "Network",
                             graph_spec: "GraphTopologySpec | None" = None,
                             template: "RoutedTemplate | None" = None
                             ) -> dict[PriorityClass, float]:
        """The class bounds of :meth:`_bounds` on ``network``."""
        return self._bounds(list(messages), policy, network, graph_spec,
                            template).classes

    @staticmethod
    def _bounds(messages: "list[Message]", policy: str, network: "Network",
                graph_spec: "GraphTopologySpec | None",
                template: "RoutedTemplate | None") -> NetworkBounds:
        """Network-level bounds of ``messages`` on ``network``.

        The one place that picks the network calculus composition: a
        graph lowering is bounded path by path by
        :class:`~repro.analysis.multihop.GraphPathAnalysis` (over
        ``template``, the messages' routes on ``network``, when given),
        which also bounds every port's and every class's backlog and
        reports the worst flow's switch hops; a star by
        :class:`~repro.core.endtoend.EndToEndAnalysis`, which routes for
        itself and reads an overloaded star as unbounded classes.
        """
        if graph_spec is not None:
            from repro.analysis.multihop import GraphPathAnalysis

            outcome = GraphPathAnalysis(graph_spec, policy=policy).analyze(
                messages if template is None else template)
            worst = outcome.worst_per_class()
            return NetworkBounds(
                {cls: bound.delay for cls, bound in worst.items()},
                {(port.node, port.toward): port.backlog_bits
                 for port in outcome.ports},
                {cls: len(bound.hops) for cls, bound in worst.items()},
                outcome.class_backlogs)
        from repro.core.endtoend import EndToEndAnalysis

        try:
            analytic = EndToEndAnalysis(
                network, policy=policy).analyze(messages)
        except UnstableSystemError:
            return NetworkBounds(
                {cls: math.inf for cls in present_classes(messages)},
                {}, {}, {})
        return NetworkBounds(
            {cls: bound.total_delay
             for cls, bound in analytic.worst_per_class().items()},
            {}, {}, {})
