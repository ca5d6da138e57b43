"""One routed template per lowering, and the dirty-port fixed point.

``scenario_inputs`` routes a scenario's flows once into a
:class:`~repro.analysis.engines.iteration.RoutedTemplate`; every
holistic or trajectory run instantiates fresh per-hop state from it.
These tests pin that sharing one template is bit-identical to routing
afresh for every run — whatever the engine order, and however often the
template is reused — and that the fixed point re-runs a port's rule
only when a member's upstream at that port's hop moved, with exactly
the result of re-running every port on every pass.
"""

from __future__ import annotations

import pytest

from repro.analysis.engines import HolisticEngine, TrajectoryEngine, get_engine
from repro.analysis.engines.base import scenario_inputs
from repro.analysis.engines.iteration import (MAX_ITERATIONS,
                                              network_template,
                                              port_leftovers,
                                              run_fixed_point)
from repro.analysis.validation import wire_level_messages
from repro.campaigns import builtin_scenarios
from repro.topology.builders import single_switch_star
from repro.topology.graph import (diamond_graph_spec, random_graph_spec,
                                  ring_graph_spec)
from repro.workloads.realcase import RealCaseParameters, generate_real_case

from tests.analysis.test_fixed_point_golden import diverging_ring

ITERATIVE_ENGINES = ("holistic", "trajectory")
SCENARIOS = builtin_scenarios()


def real_case_messages(stations: int = 8):
    return wire_level_messages(generate_real_case(
        RealCaseParameters(station_count=stations), seed=7))


@pytest.mark.parametrize("scenario", SCENARIOS,
                         ids=[scenario.name for scenario in SCENARIOS])
def test_shared_template_matches_fresh_routing(scenario):
    """Bounds from one shared template equal bounds routed per call."""
    inputs = scenario_inputs(scenario)
    shared = {}
    for order in (ITERATIVE_ENGINES, ITERATIVE_ENGINES[::-1]):
        for _ in range(2):  # reuse the template: no state may leak
            for name in order:
                for policy in scenario.policies:
                    bounds = get_engine(name).network_class_bounds(
                        inputs.messages, policy, network=inputs.network,
                        graph_spec=inputs.graph_spec,
                        template=inputs.template)
                    shared.setdefault((name, policy), []).append(bounds)
    for name in ITERATIVE_ENGINES:
        for policy in scenario.policies:
            fresh = scenario_inputs(scenario)  # a new network, routed anew
            reference = get_engine(name).network_class_bounds(
                fresh.messages, policy, network=fresh.network,
                graph_spec=fresh.graph_spec)
            for bounds in shared[(name, policy)]:
                assert bounds == reference  # bit for bit, no approx


def test_instantiate_gives_fresh_state():
    network = single_switch_star(8)
    template = network_template(network, real_case_messages())
    first_states, first_ports = template.instantiate()
    second_states, second_ports = template.instantiate()
    for first, second in zip(first_states, second_states):
        assert first is not second
        assert first.upstream is not second.upstream
        assert first.delays is not second.delays
        assert first.details is not second.details
        assert first.hops == second.hops and first.flow is second.flow
    assert all(first.members[0][0] in first_states for first in first_ports)


# -- the dirty-port fixed point ---------------------------------------------

def every_port_fixed_point(states, ports, rule) -> bool:
    """The fixed point re-running every port on every pass (reference)."""
    def accumulate():
        moved = []
        for state in states:
            cumulative = 0.0
            upstream = []
            for delay, propagation in zip(state.delays, state.propagation):
                upstream.append(cumulative)
                cumulative += delay
                cumulative += propagation
            if upstream != state.upstream:
                state.upstream = upstream
                moved.append(state)
        return moved

    for _ in range(MAX_ITERATIONS + 1):
        for port in ports:
            rule(port)
        moving = accumulate()
        if not moving:
            return True
    for state in moving:
        state.diverged = True
    for _ in range(len(states) + 1):
        for port in ports:
            rule(port)
        if not accumulate():
            break
    return False


def leftover_rule(policy):
    def rule(port):
        for (state, index), (rate, latency, delay) in zip(
                port.members, port_leftovers(port, policy)):
            state.details[index] = (rate, latency)
            state.delays[index] = delay
    return rule


RULES = {
    "leftover": leftover_rule,
    "holistic": lambda policy: lambda port: HolisticEngine()._port_delays(
        port, policy),
    "trajectory": lambda policy: lambda port: TrajectoryEngine._port_delays(
        port, policy),
}

TOPOLOGIES = {
    "star": lambda: (single_switch_star(8), real_case_messages()),
    "diamond": lambda: (diamond_graph_spec(8).to_network(),
                        real_case_messages()),
    "ring": lambda: (ring_graph_spec(8).to_network(), real_case_messages()),
    "random": lambda: (random_graph_spec(8, seed=3).to_network(),
                       real_case_messages()),
    "diverging-ring": lambda: (diverging_ring()[0].to_network(),
                               diverging_ring()[1]),
}


@pytest.mark.parametrize("policy", ["fcfs", "strict-priority"])
@pytest.mark.parametrize("rule_name", sorted(RULES))
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_dirty_ports_match_every_port_passes(topology, rule_name, policy):
    network, messages = TOPOLOGIES[topology]()
    template = network_template(network, messages)
    rule = RULES[rule_name](policy)
    dirty_states, dirty_ports = template.instantiate()
    reference_states, reference_ports = template.instantiate()
    converged = run_fixed_point(dirty_states, dirty_ports, rule)
    assert converged == every_port_fixed_point(
        reference_states, reference_ports, rule)
    assert converged == (topology != "diverging-ring")
    for dirty, reference in zip(dirty_states, reference_states):
        assert dirty.upstream == reference.upstream
        assert dirty.delays == reference.delays
        assert dirty.details == reference.details
        assert dirty.diverged == reference.diverged


@pytest.mark.parametrize("policy", ["fcfs", "strict-priority"])
def test_star_second_pass_reruns_only_switch_to_station_ports(policy):
    """Hop-0 upstream never moves, so station egress ports run once.

    Re-running every port would take ``2 * len(ports)`` rule calls; the
    dirty-port loop takes one full pass plus one over the switch's
    egress ports, whose members' hop-1 upstream moved in pass one.
    """
    network = single_switch_star(8)
    states, ports = network_template(network,
                                     real_case_messages()).instantiate()
    calls = []
    rule = leftover_rule(policy)

    def counting(port):
        calls.append(port)
        rule(port)

    assert run_fixed_point(states, ports, counting)
    switch_ports = [port for port in ports if network.is_switch(port.node)]
    assert switch_ports and len(switch_ports) < len(ports)
    assert len(calls) == len(ports) + len(switch_ports) < 2 * len(ports)
    assert all(call is port for call, port in zip(calls, ports))
    assert all(call is port
               for call, port in zip(calls[len(ports):], switch_ports))
