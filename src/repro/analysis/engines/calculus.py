"""The ``calculus`` engine — the paper's network-calculus bounds.

This engine is a thin wrapper around the reproduction's existing
analysis paths and is **bit-identical** to them by construction:

* scenario-level bounds reuse the campaign runner's math — the paper's
  single-point closed forms (:func:`repro.core.multiplexer.
  compute_class_bounds`, as in :class:`~repro.analysis.paper_model.
  PaperCaseStudy`) with the per-extra-multiplexing-point latency term,
  and :class:`~repro.analysis.multihop.GraphPathAnalysis` on graph
  topologies,
* network-level bounds (the fuzz/simulation floor checks) reuse
  :class:`repro.core.endtoend.EndToEndAnalysis` on stars and
  ``GraphPathAnalysis`` on graphs — exactly the code the fuzz harness
  has always validated against the simulator.

Every other engine is measured against this one: ``calculus`` is the
reference both for soundness regressions and for the tightness ranking.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from repro.analysis.engines.base import (EngineResult, ScenarioBoundEngine,
                                         present_classes)
from repro.core.multiplexer import (compute_class_bounds,
                                    compute_service_curve)
from repro.errors import EmptyAggregateError, UnstableSystemError
from repro.flows.priorities import PriorityClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engines.base import ScenarioInputs
    from repro.campaigns.scenario import Scenario
    from repro.flows.messages import Message
    from repro.topology.graph import GraphTopologySpec
    from repro.topology.network import Network

__all__ = ["CalculusEngine"]


class CalculusEngine(ScenarioBoundEngine):
    """Network-calculus bounds, wrapping the pre-engine analysis paths."""

    name = "calculus"

    def class_bounds(self, scenario: "Scenario", policy: str,
                     inputs: "ScenarioInputs | None" = None
                     ) -> EngineResult:
        """Scenario-level bounds, identical to the campaign runner's rows.

        These are the scenario-level closed forms on the unsized
        workload, not a bound on the lowered network, so ``inputs`` is
        not used.
        """
        from repro.core.multiplexer import aggregate_flows

        message_set = scenario.workload.build()
        aggregates = aggregate_flows(message_set.messages)
        mapping: dict[PriorityClass, float] = {}
        if scenario.topology.kind == "graph":
            from repro.analysis.multihop import GraphPathAnalysis

            graph_spec = scenario.topology.build_graph(
                scenario.workload.total_stations, scenario.capacity,
                scenario.technology_delay)
            outcome = GraphPathAnalysis(
                graph_spec, policy=policy).analyze(message_set.messages)
            for cls in sorted(aggregates):
                try:
                    mapping[cls] = outcome.class_delay(cls)
                except EmptyAggregateError:
                    continue
            return EngineResult.from_mapping(self.name, policy, mapping)
        bounds = compute_class_bounds(aggregates, scenario.capacity,
                                      scenario.technology_delay, policy)
        for cls in sorted(bounds):
            mux_bound = bounds[cls]
            if mux_bound is None or mux_bound.details.get("unstable"):
                mapping[cls] = math.inf
                continue
            service = compute_service_curve(
                aggregates, scenario.capacity, scenario.technology_delay,
                policy, None if policy == "fcfs" else cls)
            # Pay the bursts once; every extra point adds its latency.
            mapping[cls] = (mux_bound.delay
                            + (scenario.hops - 1) * service.latency)
        return EngineResult.from_mapping(self.name, policy, mapping)

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
