"""One routed template per lowering, and the feed-forward fixed point.

``scenario_inputs`` routes a scenario's flows once into a
:class:`~repro.analysis.engines.iteration.RoutedTemplate`; every
holistic or trajectory run instantiates fresh per-hop state from it.
These tests pin that sharing one template is bit-identical to routing
afresh for every run — whatever the engine order, and however often the
template is reused.  They also pin both ways ``run_fixed_point`` can
run against a reference that re-runs every port on every pass: the
template's feed-forward schedule (each port once, in dependency order)
and the dirty-port loop (a port re-runs only when a member's upstream
at that port's hop moved), which cyclic or too-deep templates fall
back to.
"""

from __future__ import annotations

import math

import pytest

from repro import units
from repro.analysis.engines import HolisticEngine, TrajectoryEngine, get_engine
from repro.analysis.engines.base import scenario_inputs
from repro.analysis.engines.iteration import (MAX_ITERATIONS,
                                              network_template,
                                              port_leftovers, port_levels,
                                              run_fixed_point)
from repro.analysis.validation import wire_level_messages
from repro.campaigns import builtin_scenarios
from repro.core.endtoend import EndToEndAnalysis
from repro.store import fingerprint
from repro.flows.messages import Message, MessageKind
from repro.topology.builders import single_switch_star
from repro.topology.graph import (GraphLink, GraphNode, GraphTopologySpec,
                                  diamond_graph_spec, random_graph_spec,
                                  ring_graph_spec, star_graph_spec)
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


# -- the fixed point: feed-forward schedule and dirty ports ------------------

def every_port_fixed_point(states, ports, rule, schedule=None) -> bool:
    """The fixed point re-running every port on every pass (reference).

    ``schedule`` is accepted, and ignored, so the reference can stand in
    for ``run_fixed_point`` in a caller.
    """
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
                port.members, port_leftovers(port, port_levels(port, policy))):
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


def switch_line(depth: int):
    """Switches in a line whose port chain is ``depth`` dependencies deep.

    ``depth`` switches sit between two stations; flows of three classes
    cross the whole line both ways, so each route crosses ``depth + 1``
    ports in a chain.
    """
    switches = [f"sw-{index:02d}" for index in range(depth)]
    nodes = [GraphNode(name, "switch", technology_delay=units.us(16))
             for name in switches]
    nodes += [GraphNode("station-00", "end-system"),
              GraphNode("station-01", "end-system")]
    links = [GraphLink(first, second)
             for first, second in zip(switches, switches[1:])]
    links += [GraphLink("station-00", switches[0]),
              GraphLink("station-01", switches[-1])]
    messages = []
    for source, destination in (("station-00", "station-01"),
                                ("station-01", "station-00")):
        messages += [
            Message(f"urgent-{source}", MessageKind.SPORADIC, units.ms(4),
                    800.0, source, destination, deadline=units.ms(3)),
            Message(f"periodic-{source}", MessageKind.PERIODIC,
                    units.ms(2), 4000.0, source, destination),
            Message(f"background-{source}", MessageKind.SPORADIC,
                    units.ms(20), 12000.0, source, destination)]
    spec = GraphTopologySpec(name=f"line-{depth}", nodes=tuple(nodes),
                             links=tuple(links))
    return spec.to_network(), messages


def wrapping_ring():
    """A lightly loaded five-switch ring whose routes wrap and settle.

    Every ring station sends one small flow two switches clockwise, so
    the port dependencies form a cycle, but the burst inflation round
    it shrinks every pass and the dirty-port loop converges.
    """
    spec = ring_graph_spec(5, switch_count=5)
    messages = [Message(f"ring-{index}", MessageKind.PERIODIC, units.ms(20),
                        400.0, f"station-{index:02d}",
                        f"station-{(index + 2) % 5:02d}")
                for index in range(5)]
    return spec.to_network(), messages


#: Port chains around the fall-back boundary: ``MAX_ITERATIONS``
#: dependencies deep is the deepest the dirty-port loop settles in, so
#: it is the deepest chain that gets a schedule.
LINE_DEPTHS = range(MAX_ITERATIONS - 1, MAX_ITERATIONS + 3)

TOPOLOGIES = {
    "star": lambda: (single_switch_star(8), real_case_messages()),
    "diamond": lambda: (diamond_graph_spec(8).to_network(),
                        real_case_messages()),
    "ring": lambda: (ring_graph_spec(8).to_network(), real_case_messages()),
    "random": lambda: (random_graph_spec(8, seed=3).to_network(),
                       real_case_messages()),
    "diverging-ring": lambda: (diverging_ring()[0].to_network(),
                               diverging_ring()[1]),
    "wrapping-ring": wrapping_ring,
    **{f"line-{depth}": (lambda depth=depth: switch_line(depth))
       for depth in LINE_DEPTHS},
}

#: Topologies without a schedule: a dependency cycle or too deep a chain.
UNSCHEDULED = {"diverging-ring", "wrapping-ring",
               *(f"line-{depth}" for depth in LINE_DEPTHS
                 if depth > MAX_ITERATIONS)}

#: Topologies on which the fixed point does not settle.
DIVERGING = UNSCHEDULED - {"wrapping-ring"}


@pytest.mark.parametrize("scheduled", [True, False],
                         ids=["schedule", "dirty-ports"])
@pytest.mark.parametrize("policy", ["fcfs", "strict-priority"])
@pytest.mark.parametrize("rule_name", sorted(RULES))
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_dirty_ports_match_every_port_passes(topology, rule_name, policy,
                                             scheduled):
    network, messages = TOPOLOGIES[topology]()
    template = network_template(network, messages)
    assert (template.schedule is None) == (topology in UNSCHEDULED)
    rule = RULES[rule_name](policy)
    states, ports = template.instantiate()
    reference_states, reference_ports = template.instantiate()
    converged = run_fixed_point(
        states, ports, rule, template.schedule if scheduled else None)
    assert converged == every_port_fixed_point(
        reference_states, reference_ports, rule)
    assert converged == (topology not in DIVERGING)
    for state, reference in zip(states, reference_states):
        assert state.upstream == reference.upstream
        assert state.delays == reference.delays
        assert state.details == reference.details
        assert state.diverged == reference.diverged


@pytest.mark.parametrize("policy", ["fcfs", "strict-priority"])
def test_acyclic_star_runs_each_port_once_in_port_order(policy):
    """Station egress ports sort before the switch's and feed them.

    The feed-forward schedule of a star is therefore the port order
    itself, and each port's rule runs exactly once.
    """
    network = single_switch_star(8)
    template = network_template(network, real_case_messages())
    states, ports = template.instantiate()
    calls = []
    rule = leftover_rule(policy)

    def counting(port):
        calls.append(port)
        rule(port)

    assert template.schedule == tuple(range(len(ports)))
    assert run_fixed_point(states, ports, counting, template.schedule)
    assert any(network.is_switch(port.node) for port in ports)
    assert len(calls) == len(ports)
    assert all(call is port for call, port in zip(calls, ports))


def overloaded_star(switch_name: str):
    """The 8-station case plus one 12 Mbps flow on 10 Mbps links.

    The flow overloads its station's egress port and the switch's port
    toward its destination.
    """
    network = star_graph_spec(8, switch_name=switch_name).to_network()
    return network, real_case_messages() + [Message(
        "overload", MessageKind.PERIODIC, units.ms(1), 12000.0,
        "station-00", "station-01")]


@pytest.mark.parametrize("policy", ["fcfs", "strict-priority"])
@pytest.mark.parametrize("switch_name", ["switch-0", "a-switch"])
def test_overloaded_star_bounds_what_it_can(monkeypatch, policy,
                                            switch_name):
    """An overloaded port raises nothing: the flows it cannot serve get
    infinite bounds, flows elsewhere keep finite ones, and the scheduled
    run equals the every-port passes.

    With ``a-switch`` the switch's ports sort before the stations', so
    the pass-by-pass loop meets the overloaded switch port first while
    the schedule meets the station port first.
    """
    network, messages = overloaded_star(switch_name)
    scheduled = EndToEndAnalysis(network, policy=policy).analyze(messages)
    monkeypatch.setattr("repro.core.endtoend.run_fixed_point",
                        every_port_fixed_point)
    reference = EndToEndAnalysis(network, policy=policy).analyze(messages)
    assert fingerprint(scheduled) == fingerprint(reference)
    assert scheduled.converged
    assert math.isinf(scheduled.bound_for("overload").total_delay)
    assert any(math.isfinite(bound.total_delay) for bound in scheduled)
    backlogs = {(port.node, port.toward): port.backlog_bits
                for port in scheduled.ports}
    assert backlogs[("station-00", switch_name)] == math.inf
    assert backlogs[(switch_name, "station-01")] == math.inf
