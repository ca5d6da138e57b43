"""One port partition per evaluation, and the compositions that read it.

Every port evaluation of the fixed point partitions the port's members
once (:func:`~repro.analysis.engines.iteration.port_levels`); the
trajectory composition and the calculus backlogs read the partition
kept from each port's last evaluation instead of building it again.

Two properties pin that:

* **Reference equality.**  The holistic and trajectory engines and
  ``EndToEndAnalysis`` give, bit for bit, what a straightforward
  reference gives: a fresh partition for every use, the blocking term
  found by scanning every member once per level, and every companion
  sum rebuilt from list slices at every hop.  The reference below is
  that code, kept here only as the yardstick.
* **Partition handoff.**  After ``run_fixed_point`` the partition each
  rule kept equals a fresh ``port_levels`` on every port, on every path
  the fixed point can take: a scheduled star, a ring iterated pass by
  pass and a ring that diverges.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import pytest

from repro import units
from repro.analysis.engines import HolisticEngine, TrajectoryEngine, get_engine
from repro.analysis.engines.base import scenario_inputs
from repro.analysis.engines.iteration import (network_template, port_levels,
                                              run_fixed_point)
from repro.analysis.validation import lower
from repro.campaigns import builtin_scenarios
from repro.core.endtoend import EndToEndAnalysis, PortBacklogBound
from repro.core.multiplexer import aggregate_flows, compute_class_bounds
from repro.flows.message_set import MessageSet
from repro.fuzz.generator import GeneratorConfig, ScenarioGenerator
from repro.topology.builders import single_switch_star
from repro.workloads.realcase import RealCaseParameters, generate_real_case

from tests.analysis.test_fixed_point_golden import diverging_ring
from tests.analysis.test_routed_template import (real_case_messages,
                                                 wrapping_ring)

POLICIES = ("fcfs", "strict-priority")


# -- the reference -----------------------------------------------------------

def burst_at(state, index):
    """A member's token-bucket burst at one hop, inflated by upstream."""
    if state.diverged:
        return math.inf
    upstream = state.upstream[index]
    if math.isinf(upstream):
        return math.inf
    return state.burst + state.rate * upstream


def reference_levels(port, policy):
    """``(positions, bursts, rates, higher_bursts, higher_rates, blocking)``
    of every level, most urgent first; blocking scanned per level."""
    members = port.members
    bursts = [burst_at(state, index) for state, index in members]
    rates = [state.rate for state, _ in members]
    if policy == "fcfs":
        return [(list(range(len(members))), bursts, rates, [], [], 0.0)]
    grouped = {}
    for position, (state, _) in enumerate(members):
        grouped.setdefault(state.level, []).append(position)
    levels = []
    higher_bursts, higher_rates = [], []
    for level in sorted(grouped):
        positions = grouped[level]
        own_bursts = [bursts[position] for position in positions]
        own_rates = [rates[position] for position in positions]
        levels.append((positions, own_bursts, own_rates, higher_bursts,
                       higher_rates,
                       max((burst for (state, _), burst in zip(members, bursts)
                            if state.level > level), default=0.0)))
        higher_bursts = higher_bursts + own_bursts
        higher_rates = higher_rates + own_rates
    return levels


def reference_leftovers(port, policy):
    """Left-over ``(rate, latency, delay)`` of every member, by slices."""
    leftovers = [None] * len(port.members)
    for positions, own_bursts, own_rates, higher_bursts, higher_rates, \
            blocking in reference_levels(port, policy):
        bursts = higher_bursts + own_bursts
        rates = higher_rates + own_rates
        for own, position in enumerate(positions, len(higher_bursts)):
            burst = bursts[own]
            cross_burst = math.fsum(bursts[:own] + bursts[own + 1:])
            rate = port.capacity - math.fsum(rates[:own] + rates[own + 1:])
            if rate <= 0.0 or math.isinf(cross_burst) or \
                    math.isinf(blocking):
                leftovers[position] = (rate, math.inf, math.inf)
                continue
            latency = (port.capacity * port.technology_delay
                       + blocking + cross_burst) / rate
            if math.isinf(burst) or rates[own] > rate:
                leftovers[position] = (rate, latency, math.inf)
            else:
                leftovers[position] = (rate, latency, latency + burst / rate)
    return leftovers


def reference_holistic_rule(policy):
    def rule(port):
        for positions, bursts, rates, higher_bursts, higher_rates, \
                blocking in reference_levels(port, policy):
            work = math.fsum(higher_bursts + bursts)
            rate = math.fsum(higher_rates + rates)
            delay = _busy_period(work + blocking, rate,
                                 port.capacity) + port.technology_delay
            for position in positions:
                state, index = port.members[position]
                state.delays[index] = delay
    return rule


def _busy_period(work, rate, capacity):
    from repro.analysis.engines.holistic import _busy_period as busy_period
    return busy_period(work, rate, capacity)


def reference_holistic(template, policy):
    """Per-class holistic bounds with the reference partition."""
    states, ports = template.instantiate()
    run_fixed_point(states, ports, reference_holistic_rule(policy),
                    template.schedule)
    mapping = {}
    for state in states:
        delay = HolisticEngine()._end_to_end(state)
        mapping[state.priority] = max(mapping.get(state.priority, 0.0),
                                      delay)
    return mapping


def _without(values, position):
    return values[:position] + values[position + 1:]


def reference_trajectory(template, policy):
    """Per-class trajectory bounds: fresh level groups keyed by name sets,
    companion sums rebuilt from slices at every hop."""
    states, ports = template.instantiate()

    def rule(port):
        for (state, index), (_, _, delay) in zip(
                port.members, reference_leftovers(port, policy)):
            state.delays[index] = delay

    run_fixed_point(states, ports, rule, template.schedule)
    paths = {id(state): [None] * len(state.hops) for state in states}
    for port in ports:
        for positions, bursts, rates, higher_bursts, higher_rates, \
                blocking in reference_levels(port, policy):
            higher_burst = math.fsum(higher_bursts)
            rate = port.capacity - math.fsum(higher_rates)
            leftover = None
            if rate > 0 and math.isfinite(higher_burst) \
                    and math.isfinite(blocking):
                leftover = (rate, (port.capacity * port.technology_delay
                                   + blocking + higher_burst) / rate)
            members = [port.members[position] for position in positions]
            group = (leftover, frozenset(state.name for state, _ in members),
                     rates, bursts)
            for position, (state, index) in enumerate(members):
                paths[id(state)][index] = (group, position)
    mapping = {}
    for state in states:
        delay = _reference_end_to_end(state, paths[id(state)])
        mapping[state.priority] = max(mapping.get(state.priority, 0.0),
                                      delay)
    return mapping


def _reference_end_to_end(state, path):
    if state.diverged:
        return math.inf
    if any(group[0] is None for group, _ in path):
        return math.inf
    total_latency = 0.0
    slowest_segment = math.inf
    start = 0
    while start < len(path):
        stop = start
        while stop + 1 < len(path) and \
                path[stop + 1][0][1] == path[start][0][1]:
            stop += 1
        segment_rate, segment_latency = _reference_segment(
            path[start:stop + 1])
        if segment_rate <= 0 or not math.isfinite(segment_latency):
            return math.inf
        total_latency += segment_latency
        slowest_segment = min(slowest_segment, segment_rate)
        start = stop + 1
    if state.rate > slowest_segment:
        return math.inf
    packetisation = 0.0
    for group, position in path[:-1]:
        local_rate = group[0][0] - math.fsum(_without(group[2], position))
        if local_rate <= 0:
            return math.inf
        packetisation += state.burst / local_rate
    propagation = math.fsum(state.propagation)
    return (total_latency + state.burst / slowest_segment
            + packetisation + propagation)


def _reference_segment(segment):
    rate = min(group[0][0] for group, _ in segment)
    latency = math.fsum(group[0][1] for group, _ in segment)
    entrance, position = segment[0]
    companion_rate = math.fsum(_without(entrance[2], position))
    companion_burst = math.fsum(_without(entrance[3], position))
    if not math.isfinite(companion_burst):
        return 0.0, math.inf
    segment_rate = rate - companion_rate
    if segment_rate <= 0 or not math.isfinite(latency):
        return 0.0, math.inf
    segment_latency = latency + (companion_burst
                                 + companion_rate * latency) / segment_rate
    return segment_rate, segment_latency


class ReferenceEndToEndAnalysis(EndToEndAnalysis):
    """``EndToEndAnalysis`` with member bursts read without a partition
    and fresh backlog partitions."""

    def _port_bounds(self, port):
        bounds = compute_class_bounds(aggregate_flows(
            Effective(burst_at(state, index), state.rate, state.priority)
            for state, index in port.members),
            port.capacity, port.technology_delay, self.policy)
        for state, index in port.members:
            bound = bounds[state.priority]
            if bound is None or bound.details["unstable"]:
                state.details[index] = None
                state.delays[index] = math.inf
            else:
                state.details[index] = bound
                state.delays[index] = bound.delay

    def _backlogs(self, ports):
        contexts = {(port.node, port.toward): port for port in ports}
        port_bounds = []
        class_backlogs = {}
        spec = self.network.spec
        all_ports = {(node, successor)
                     for node, successors in spec.successors().items()
                     for successor in successors}
        for (node, toward) in sorted(all_ports):
            port = contexts.get((node, toward))
            levels = [] if port is None else reference_levels(port,
                                                              self.policy)
            capacity = spec.edge(node, toward).rate
            latency0 = spec.technology_delay(node)
            total_rate = math.fsum(rate for level in levels
                                   for rate in level[2])
            total_burst = math.fsum(burst for level in levels
                                    for burst in level[1])
            if total_rate > capacity or math.isinf(total_burst):
                aggregate = math.inf
            else:
                aggregate = total_burst + total_rate * latency0
            port_bounds.append(PortBacklogBound(
                node=node, toward=toward,
                flow_count=0 if port is None else len(port.members),
                backlog_bits=aggregate))
            for positions, bursts, rates, higher_bursts, higher_rates, \
                    blocking in levels:
                backlog = _reference_level_backlog(
                    bursts, rates, higher_bursts, higher_rates, blocking,
                    capacity, latency0)
                for priority in {port.members[position][0].priority
                                 for position in positions}:
                    class_backlogs[priority] = max(
                        class_backlogs.get(priority, 0.0), backlog)
        return tuple(port_bounds), dict(sorted(class_backlogs.items()))


class Effective(NamedTuple):
    """A member as the multiplexer sees it: inflated burst, rate, class."""

    burst: float
    rate: float
    priority: object


def _reference_level_backlog(bursts, rates, higher_bursts, higher_rates,
                             blocking, capacity, latency0):
    own_burst = math.fsum(bursts)
    own_rate = math.fsum(rates)
    cross_burst = math.fsum(higher_bursts)
    rate = capacity - math.fsum(higher_rates)
    if rate <= 0.0 or own_rate > rate or math.isinf(cross_burst) or \
            math.isinf(own_burst) or math.isinf(blocking):
        return math.inf
    latency = (capacity * latency0 + blocking + cross_burst) / rate
    return own_burst + own_rate * latency


# -- the inputs --------------------------------------------------------------

GENERATED = 30


def overloaded_star():
    """The 8-station case at 0.2 Mbps: every switch port is overloaded."""
    message_set = generate_real_case(RealCaseParameters(station_count=8),
                                     seed=7)
    return lower(message_set, capacity=units.mbps(0.2),
                 technology_delay=units.us(16))


def lowered_diverging_ring():
    """The diverging ring of the golden tests, sized at wire level."""
    spec, messages = diverging_ring()
    return lower(MessageSet(messages, name="diverging-ring"),
                 capacity=units.mbps(10), technology_delay=units.us(16),
                 graph_spec=spec)


INPUTS = {
    **{f"builtin-{scenario.name}": (lambda scenario=scenario:
                                     scenario_inputs(scenario))
       for scenario in builtin_scenarios()},
    **{f"generated-{index:02d}": (
        lambda index=index: scenario_inputs(ScenarioGenerator(
            301, GeneratorConfig.multi_hop()).scenario(index)))
       for index in range(GENERATED)},
    "overloaded-star": overloaded_star,
    "diverging-ring": lowered_diverging_ring,
}


@functools.lru_cache(maxsize=None)
def inputs_of(name):
    return INPUTS[name]()


def exact(value) -> str:
    """A value's text with every float at full precision (``repr``)."""
    return repr(value)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_engines_equal_the_reference(name, policy):
    inputs = inputs_of(name)
    template = inputs.template
    kwargs = dict(network=inputs.network, graph_spec=inputs.graph_spec,
                  template=template)
    holistic = get_engine("holistic").network_class_bounds(
        inputs.messages, policy, **kwargs)
    assert exact(holistic) == exact(reference_holistic(template, policy))
    trajectory = get_engine("trajectory").network_class_bounds(
        inputs.messages, policy, **kwargs)
    assert exact(trajectory) == exact(reference_trajectory(template, policy))
    calculus = EndToEndAnalysis(inputs.network, policy).analyze(template)
    assert exact(calculus) == exact(
        ReferenceEndToEndAnalysis(inputs.network, policy).analyze(template))


def test_the_inputs_reach_every_edge_case():
    """Overloaded ports, infinite bursts and single-member levels."""
    overloaded = inputs_of("overloaded-star").template
    states, ports = overloaded.instantiate()
    assert any(rate <= 0.0 for port in ports
               for rate, _, _ in reference_leftovers(port, "fcfs"))
    ring = inputs_of("diverging-ring")
    result = EndToEndAnalysis(ring.network, "fcfs").analyze(ring.template)
    assert not result.converged
    assert any(math.isinf(bound.total_delay) for bound in result)
    single = 0
    for name in INPUTS:
        states, ports = inputs_of(name).template.instantiate()
        single += sum(len(level[0]) == 1 for port in ports
                      for level in reference_levels(port, "strict-priority"))
    assert single > 0


# -- the partition handoff ---------------------------------------------------

def trajectory_rule(policy):
    return lambda port: TrajectoryEngine._port_delays(port, policy)


def calculus_rule(network, policy):
    return EndToEndAnalysis(network, policy)._port_bounds


HANDOFF = {
    "scheduled-star": lambda: (single_switch_star(8), real_case_messages()),
    "pass-by-pass-ring": wrapping_ring,
    "diverging-ring": lambda: (diverging_ring()[0].to_network(),
                               diverging_ring()[1]),
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("rule_name", ["trajectory", "calculus"])
@pytest.mark.parametrize("path", sorted(HANDOFF))
def test_each_rule_keeps_its_ports_final_partition(path, rule_name, policy):
    network, messages = HANDOFF[path]()
    template = network_template(network, messages)
    states, ports = template.instantiate()
    rule = (trajectory_rule(policy) if rule_name == "trajectory"
            else calculus_rule(network, policy))
    converged = run_fixed_point(states, ports, rule, template.schedule)
    assert (template.schedule is None) == path.endswith("ring")
    assert converged == (path != "diverging-ring")
    if path == "diverging-ring":
        assert any(state.diverged for state in states)
    for port in ports:
        assert port.levels == port_levels(port, policy)
