"""The ``calculus`` engine — the paper's network-calculus bounds.

This engine is a thin wrapper around the reproduction's existing
analysis paths and is **bit-identical** to them by construction:

* scenario-level bounds are the campaign runner's rows, from the same
  :func:`scenario_rows` — the closed form
  :func:`repro.core.multiplexer.single_point_rows` (whose docstring
  states the multi-hop composition rule) or, on graph topologies,
  :meth:`repro.analysis.multihop.MultiHopAnalysisResult.class_rows`,
* network-level bounds (the fuzz/simulation floor checks) reuse
  :class:`repro.core.endtoend.EndToEndAnalysis` on stars and
  ``GraphPathAnalysis`` on graphs — exactly the code the fuzz harness
  has always validated against the simulator.

Every other engine is measured against this one: ``calculus`` is the
reference both for soundness regressions and for the tightness ranking.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.analysis.engines.base import (EngineResult, ScenarioBoundEngine,
                                         present_classes)
from repro.core.multiplexer import aggregate_flows, single_point_rows
from repro.errors import UnstableSystemError
from repro.flows.priorities import PriorityClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engines.base import ScenarioInputs
    from repro.analysis.multihop import GraphPathAnalysis
    from repro.campaigns.scenario import Scenario
    from repro.core.multiplexer import ClassAggregate
    from repro.flows.messages import Message
    from repro.topology.graph import GraphTopologySpec
    from repro.topology.network import Network

__all__ = ["CalculusEngine", "scenario_rows"]


def scenario_rows(scenario: "Scenario", policy: str,
                  aggregates: "Mapping[PriorityClass, ClassAggregate]",
                  messages: "Callable[[], Sequence[Message]]",
                  analysis: "GraphPathAnalysis | None" = None
                  ) -> dict[PriorityClass, tuple[float, float]]:
    """Per-class ``(bound, backlog_bits)`` of one scenario under ``policy``.

    The one place that picks a scenario's row function.  Graph
    topologies route every flow of ``messages()`` through ``analysis``
    (a fresh :class:`~repro.analysis.multihop.GraphPathAnalysis` of the
    scenario's graph unless the caller keeps one for this policy) and
    return :meth:`~repro.analysis.multihop.MultiHopAnalysisResult.class_rows`;
    every other topology evaluates
    :func:`~repro.core.multiplexer.single_point_rows` on ``aggregates``.
    ``messages`` is only called on graph topologies, so the closed form
    never materialises a replicated message set.
    """
    if scenario.topology.kind != "graph":
        return single_point_rows(aggregates, scenario.capacity,
                                 scenario.technology_delay, policy,
                                 scenario.hops)
    if analysis is None:
        from repro.analysis.multihop import GraphPathAnalysis

        analysis = GraphPathAnalysis(scenario.topology.build_graph(
            scenario.workload.total_stations, scenario.capacity,
            scenario.technology_delay), policy=policy)
    return analysis.analyze(messages()).class_rows()


class CalculusEngine(ScenarioBoundEngine):
    """Network-calculus bounds, wrapping the pre-engine analysis paths."""

    name = "calculus"

    def class_bounds(self, scenario: "Scenario", policy: str,
                     inputs: "ScenarioInputs | None" = None
                     ) -> EngineResult:
        """Scenario-level bounds, identical to the campaign runner's rows.

        These are the scenario-level rows on the unsized workload, not a
        bound on the lowered network, so ``inputs`` is not used.
        """
        messages = scenario.workload.build().messages
        rows = scenario_rows(scenario, policy, aggregate_flows(messages),
                             lambda: messages)
        return EngineResult.from_mapping(
            self.name, policy,
            {cls: bound for cls, (bound, _) in rows.items()})

    def network_class_bounds(self, messages: "Iterable[Message]",
                             policy: str, *, network: "Network",
                             graph_spec: "GraphTopologySpec | None" = None
                             ) -> dict[PriorityClass, float]:
        """Network-level bounds, identical to the fuzz harness' floor."""
        messages = list(messages)
        if graph_spec is not None:
            from repro.analysis.multihop import GraphPathAnalysis

            outcome = GraphPathAnalysis(
                graph_spec, policy=policy).analyze(messages)
            return {cls: bound.delay
                    for cls, bound in outcome.worst_per_class().items()}
        from repro.core.endtoend import EndToEndAnalysis

        try:
            analytic = EndToEndAnalysis(
                network, policy=policy).analyze(messages)
        except UnstableSystemError:
            return {cls: math.inf for cls in present_classes(messages)}
        return {cls: bound.total_delay
                for cls, bound in analytic.worst_per_class().items()}
