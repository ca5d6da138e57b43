"""Property: bounds depend on the set of flows, not on their names.

The multiplexer bound adds the bursts and rates of the flows sharing a
port — a set.  Renaming every wire message of a builtin scenario to a
fresh unique name and shuffling the list (same sources, destinations
and parameters) changes the order in which the flows are stored, and
therefore the order of every port's members, but not the set.  Every
bound must come out ``repr``-identical: the holistic, trajectory and
calculus network bounds, ``GraphPathAnalysis``'s class rows and port
backlogs, and ``EndToEndAnalysis``'s worst bound per class.  This is a
metamorphic relation: no oracle is needed, only the original run.
"""

import dataclasses
import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.engines import get_engine
from repro.analysis.engines.base import scenario_inputs
from repro.analysis.multihop import GraphPathAnalysis
from repro.campaigns import builtin_scenarios
from repro.core.endtoend import EndToEndAnalysis
from repro.errors import AnalysisError

SCENARIOS = {scenario.name: scenario for scenario in builtin_scenarios()}
POLICIES = ("fcfs", "strict-priority")
ENGINES = ("calculus", "holistic", "trajectory")


@functools.lru_cache(maxsize=None)
def lowered(name: str):
    """Wire messages, network, graph spec and topology of one scenario.

    Star-family scenarios have no graph spec; ``GraphPathAnalysis``
    bounds them on the topology behind their lowered network.
    """
    inputs = scenario_inputs(SCENARIOS[name])
    return (tuple(inputs.messages), inputs.network, inputs.graph_spec,
            inputs.network.spec)


def renamed(messages, seed: int) -> list:
    """``messages`` under fresh unique names, in a shuffled order."""
    generator = random.Random(seed)
    names = set()
    while len(names) < len(messages):
        names.add(f"m-{generator.getrandbits(48):012x}")
    fresh = [dataclasses.replace(message, name=name)
             for message, name in zip(messages, generator.sample(
                 sorted(names), len(names)))]
    generator.shuffle(fresh)
    return fresh


def outcome(run):
    """``repr`` of ``run()``'s sorted items, or of the error it raises."""
    try:
        return repr(sorted(run().items()))
    except AnalysisError as error:
        return f"{type(error).__name__}: {error}"


def bounds(name: str, policy: str, messages) -> dict:
    """Every name-free bound of one scenario's flows under ``policy``."""
    _, network, graph_spec, spec = lowered(name)
    results = {engine: outcome(lambda engine=engine: get_engine(
        engine).network_class_bounds(messages, policy, network=network,
                                     graph_spec=graph_spec))
               for engine in ENGINES}
    graph = GraphPathAnalysis(spec, policy=policy).analyze(messages)
    results["graph-rows"] = repr(graph.class_rows())
    results["graph-ports"] = repr(graph.ports)
    results["end-to-end"] = outcome(lambda: {
        cls: bound.total_delay for cls, bound in EndToEndAnalysis(
            network, policy=policy).analyze(messages)
        .worst_per_class().items()})
    return results


@functools.lru_cache(maxsize=None)
def reference(name: str, policy: str) -> dict:
    return bounds(name, policy, list(lowered(name)[0]))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
@settings(max_examples=2, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_renaming_and_shuffling_flows_moves_no_bound(name, policy, seed):
    messages = renamed(lowered(name)[0], seed)
    assert bounds(name, policy, messages) == reference(name, policy)
