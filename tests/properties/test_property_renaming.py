"""Property: bounds depend on the set of flows, not on their names.

The multiplexer bound adds the bursts and rates of the flows sharing a
port — a set.  Renaming every wire message of a builtin scenario to a
fresh unique name and shuffling the list (same sources, destinations
and parameters) changes the order in which the flows are stored, and
therefore the order of every port's members, but not the set.  Every
bound must come out ``repr``-identical: the holistic, trajectory and
calculus network bounds, and ``EndToEndAnalysis``'s worst bound and
queue bound per class and its port backlogs.  This is a metamorphic
relation: no oracle is needed, only the original run.
"""

import dataclasses
import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.engines import get_engine
from repro.analysis.engines.base import scenario_inputs
from repro.campaigns import builtin_scenarios
from repro.core.endtoend import EndToEndAnalysis

SCENARIOS = {scenario.name: scenario for scenario in builtin_scenarios()}
POLICIES = ("fcfs", "strict-priority")
ENGINES = ("calculus", "holistic", "trajectory")


@functools.lru_cache(maxsize=None)
def lowered(name: str):
    """Wire messages, network and graph spec of one scenario (star-family
    scenarios have no graph spec)."""
    inputs = scenario_inputs(SCENARIOS[name])
    return tuple(inputs.messages), inputs.network, inputs.graph_spec


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


def bounds(name: str, policy: str, messages) -> dict:
    """Every name-free bound of one scenario's flows under ``policy``."""
    _, network, graph_spec = lowered(name)
    results = {engine: repr(sorted(get_engine(engine).network_class_bounds(
        messages, policy, network=network, graph_spec=graph_spec).items()))
               for engine in ENGINES}
    analysis = EndToEndAnalysis(network, policy=policy).analyze(messages)
    results["end-to-end"] = repr({
        cls: (bound.total_delay, analysis.class_backlogs[cls])
        for cls, bound in sorted(analysis.worst_per_class().items())})
    results["ports"] = repr(analysis.ports)
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
