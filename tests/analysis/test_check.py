"""The one soundness check: lowering, bound choice, message convention.

:func:`repro.analysis.validation.check` is the single place where a
workload is lowered, bounded by the engines and simulated.  These tests
pin that it adds nothing of its own: its bounds are exactly what the
engine registry answers for the same lowering, its simulated floors are
exactly a direct simulator run on the unsized messages, and its rules
for "holds" and "tightness" are the shared ones.
"""

from __future__ import annotations

import math

import pytest

from repro import PriorityClass, units
from repro.analysis import validate_bounds
from repro.analysis.buffers import validate_buffer_requirements
from repro.analysis.engines import engine_names, get_engine, scenario_inputs
from repro.analysis.multihop import GraphPathAnalysis
from repro.analysis.validation import (TOLERANCE, check, engine_bounds,
                                       lower, simulate, tightness_of,
                                       wire_level_messages, within_bound)
from repro.campaigns import builtin_scenarios
from repro.ethernet.network_sim import EthernetNetworkSimulator
from repro.reports.experiments import (MULTIHOP_FAMILIES,
                                       case_study_message_set,
                                       _multihop_spec)

ENGINES = tuple(engine_names())
#: Short horizon: the floors are compared with a direct run of the same
#: horizon, so any length exercises the convention.
DURATION = units.ms(20)
SCENARIOS = {scenario.name: scenario for scenario in builtin_scenarios()}


def _direct_floors(network, messages, policy):
    """Per-class (worst, mean, samples) of a direct simulator run."""
    simulator = EthernetNetworkSimulator(network, messages, policy=policy,
                                         scenario="synchronized", seed=1)
    results = simulator.run(duration=DURATION)
    return {cls: (summary.maximum, summary.mean, summary.count)
            for cls in sorted(PriorityClass)
            for summary in (results.class_summary(cls),) if summary.count}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("policy", ("fcfs", "strict-priority"))
def test_bounds_are_the_registry_answers(name, policy):
    scenario = SCENARIOS[name]
    inputs = scenario_inputs(scenario)
    verdicts = engine_bounds(inputs, policy, ENGINES)
    assert tuple(verdicts) == ENGINES  # calculus first
    fresh = scenario_inputs(scenario)
    for engine in ENGINES:
        assert verdicts[engine].classes == get_engine(
            engine).network_class_bounds(
                fresh.messages, policy, network=fresh.network,
                graph_spec=fresh.graph_spec)
        if engine != "calculus":  # calculus' scenario rows are the paper's
            assert verdicts[engine].classes == get_engine(
                engine).class_bounds(scenario, policy).by_class()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("policy", ("fcfs", "strict-priority"))
def test_floors_are_a_direct_run_on_the_unsized_messages(name, policy):
    scenario = SCENARIOS[name]
    inputs = scenario_inputs(scenario)
    result = check(inputs, policy, engines=ENGINES, duration=DURATION)
    direct = _direct_floors(inputs.network,
                            scenario.workload.build().messages, policy)
    for engine in ENGINES:
        floors = {row.priority: (row.simulated_worst, row.simulated_mean,
                                 row.samples)
                  for row in result.rows if row.engine == engine}
        assert floors == direct
        for row in result.rows:
            if row.engine == engine:
                assert row.analytic_bound == \
                    result.bounds[engine].classes[row.priority]
    assert result.events > 0


@pytest.mark.parametrize("family", MULTIHOP_FAMILIES)
@pytest.mark.parametrize("policy", ("fcfs", "strict-priority"))
def test_multihop_families_check_paths_and_ports(family, policy):
    message_set = case_study_message_set()
    spec = _multihop_spec(family)
    inputs = lower(message_set, capacity=units.mbps(10),
                   technology_delay=units.us(16), graph_spec=spec)
    result = check(inputs, policy, engines=ENGINES, duration=DURATION)
    outcome = GraphPathAnalysis(spec, policy=policy).analyze(
        wire_level_messages(message_set))
    assert result.bounds["calculus"].classes == {
        cls: bound.delay for cls, bound in outcome.worst_per_class().items()}
    assert [(port.node, port.toward, port.backlog_bound)
            for port in result.ports] == [
        (port.node, port.toward, port.backlog_bits)
        for port in outcome.ports]
    assert _direct_floors(inputs.network, message_set.messages, policy) == {
        row.priority: (row.simulated_worst, row.simulated_mean, row.samples)
        for row in result.rows if row.engine == "calculus"}
    assert all(port.bound_holds for port in result.ports)


def test_star_lowerings_bound_no_port():
    result = check(scenario_inputs(SCENARIOS["paper-real-case"]), "fcfs",
                   duration=DURATION)
    assert result.ports == ()
    assert result.bounds["calculus"].ports == {}


def test_paper_fcfs_p0_pins_the_message_convention():
    """4.256 ms on the unsized set; the wire-level set would read 6.171."""
    inputs = scenario_inputs(SCENARIOS["paper-real-case"])
    rows = {row.priority: row for row in check(inputs, "fcfs").rows}
    assert rows[PriorityClass.URGENT].simulated_worst == \
        pytest.approx(units.us(4256), abs=units.us(0.5))
    results = simulate(inputs, "fcfs")
    assert results.class_summary(PriorityClass.URGENT).maximum == \
        rows[PriorityClass.URGENT].simulated_worst


def test_halves_compose_to_the_check():
    inputs = scenario_inputs(SCENARIOS["graph-diamond"])
    whole = check(inputs, "fcfs", engines=ENGINES, duration=DURATION)
    assert whole.bounds == engine_bounds(inputs, "fcfs", ENGINES)
    results = simulate(inputs, "fcfs", duration=DURATION)
    assert whole.events == results.events_processed
    assert whole.dropped == results.frames_dropped


class TestRules:
    def test_tolerance_is_absolute(self):
        assert within_bound(1.0 + TOLERANCE / 2, 1.0)
        assert not within_bound(1.0 + 2 * TOLERANCE, 1.0)
        assert within_bound(5.0, math.inf)

    @pytest.mark.parametrize("bound", (math.inf, 0.0, -1.0))
    def test_tightness_without_a_finite_positive_bound_is_nan(self, bound):
        assert math.isnan(tightness_of(1.0, bound))

    def test_tightness_of_a_missing_observation_is_nan(self):
        assert math.isnan(tightness_of(math.nan, 2.0))
        assert tightness_of(1.0, 2.0) == 0.5


class TestOverloadedLink:
    """An overloaded link is unbounded, not an error, and still simulated."""

    @pytest.fixture(scope="class")
    def rows(self, small_case):
        return validate_bounds(small_case, capacity=units.kbps(100),
                               simulation_duration=units.ms(40))

    def test_rows_are_unbounded_with_nan_tightness(self, rows):
        assert {row.policy for row in rows} == {"fcfs", "strict-priority"}
        for row in rows:
            assert row.analytic_bound == math.inf
            assert math.isnan(row.tightness)
            assert row.bound_holds
            assert row.samples > 0


class TestBufferCapacity:
    """``validate_buffer_requirements`` simulates at the given capacity."""

    def test_fast_links_observe_other_queue_maxima(self, small_case):
        slow = validate_buffer_requirements(small_case,
                                            simulation_duration=units.ms(80))
        fast = validate_buffer_requirements(small_case,
                                            simulation_duration=units.ms(80),
                                            capacity=units.mbps(100))
        assert [row.backlog_bits for row in slow] == \
            [row.backlog_bits for row in fast]
        assert [row.observed_bits for row in slow] != \
            [row.observed_bits for row in fast]
        assert all(row.observed_within_bound for row in fast)
