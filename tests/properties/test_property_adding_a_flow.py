"""Property: adding a flow never lowers another flow's bound.

A flow only ever adds burst, rate and blocking to the ports it crosses,
and bursts only grow downstream, so every other flow's worst case can
only get worse when it joins.  Removing a flow from a lowered workload
and bounding the rest therefore must give each remaining flow a bound
no larger than it had with the flow present: per flow for the
network-calculus composition (``EndToEndAnalysis``), and per class for
the holistic and trajectory engines, which report class bounds only.
This is a metamorphic relation: no oracle is needed, only the run with
every flow.  The cases are the builtin scenarios and multi-hop
generator cells of one seed, under both policies; three flows of each
(the first, middle and last by name) are removed in turn.
"""

import functools

import pytest

from repro.analysis.engines import get_engine
from repro.analysis.engines.base import scenario_inputs
from repro.campaigns import builtin_scenarios
from repro.core.endtoend import EndToEndAnalysis
from repro.fuzz.generator import GeneratorConfig, ScenarioGenerator

POLICIES = ("fcfs", "strict-priority")
ENGINES = ("holistic", "trajectory")
GENERATED = 8
SCENARIOS = {
    **{scenario.name: scenario for scenario in builtin_scenarios()},
    **{f"generated-{index}": ScenarioGenerator(
        301, GeneratorConfig.multi_hop()).scenario(index)
       for index in range(GENERATED)},
}


@functools.lru_cache(maxsize=None)
def lowered(name: str):
    """Wire messages (by name), network and graph spec of one case."""
    inputs = scenario_inputs(SCENARIOS[name])
    return (tuple(sorted(inputs.messages, key=lambda message: message.name)),
            inputs.network, inputs.graph_spec)


def removals(name: str):
    """The workload without each of its first, middle and last flows."""
    messages = lowered(name)[0]
    for position in sorted({0, len(messages) // 2, len(messages) - 1}):
        yield (messages[position].name,
               messages[:position] + messages[position + 1:])


def per_flow(name: str, policy: str, messages) -> dict:
    """``{flow name: end-to-end calculus bound}``."""
    network = lowered(name)[1]
    return {bound.name: bound.total_delay for bound in EndToEndAnalysis(
        network, policy=policy).analyze(messages)}


def per_class(engine: str, name: str, policy: str, messages) -> dict:
    """``{class: engine bound}``."""
    _, network, graph_spec = lowered(name)
    return get_engine(engine).network_class_bounds(
        messages, policy, network=network, graph_spec=graph_spec)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_adding_a_flow_never_lowers_another_calculus_bound(name, policy):
    present = per_flow(name, policy, lowered(name)[0])
    for removed, messages in removals(name):
        for flow, bound in per_flow(name, policy, messages).items():
            assert bound <= present[flow], (removed, flow, bound,
                                            present[flow])


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_adding_a_flow_never_lowers_an_engine_class_bound(name, engine,
                                                          policy):
    present = per_class(engine, name, policy, lowered(name)[0])
    for removed, messages in removals(name):
        for cls, bound in per_class(engine, name, policy, messages).items():
            assert bound <= present[cls], (removed, cls, bound, present[cls])
