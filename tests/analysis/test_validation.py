"""E5 — analytic bounds vs simulated worst delays."""

import pytest

from repro import PriorityClass, units
from repro.analysis import validate_bounds
from repro.analysis.validation import lower, wire_level_messages
from repro.ethernet.frame import wire_burst


class TestWireLevelMessages:
    def test_sizes_are_the_on_wire_bursts(self, tiny_message_set):
        converted = wire_level_messages(tiny_message_set)
        for original, wire in zip(tiny_message_set, converted):
            assert wire.size == pytest.approx(wire_burst(original))
            assert wire.size > original.size

    def test_periods_and_endpoints_preserved(self, tiny_message_set):
        converted = wire_level_messages(tiny_message_set)
        for original, wire in zip(tiny_message_set, converted):
            assert wire.period == original.period
            assert wire.source == original.source


class TestLower:
    def test_star_covers_every_station(self, small_case):
        network = lower(small_case, capacity=units.mbps(10),
                        technology_delay=units.us(16)).network
        assert set(small_case.stations()) <= set(network.stations)
        assert network.spec.problems() == ()


class TestBoundValidation:
    @pytest.fixture(scope="class")
    def rows(self, small_case):
        return validate_bounds(small_case,
                               simulation_duration=units.ms(160))

    def test_both_policies_and_every_class_present(self, rows):
        policies = {row.policy for row in rows}
        assert policies == {"fcfs", "strict-priority"}
        urgent_rows = [r for r in rows if r.priority is PriorityClass.URGENT]
        assert len(urgent_rows) == 2

    def test_every_bound_dominates_the_simulation(self, rows):
        assert rows, "validation produced no row"
        for row in rows:
            assert row.bound_holds, (row.policy, row.priority)

    def test_bounds_are_reasonably_tight(self, rows):
        # The adversarial synchronised scenario should get within a factor
        # of ~4 of the analytic worst case for at least some class.
        assert any(row.tightness > 0.25 for row in rows)

    def test_simulated_mean_below_worst(self, rows):
        for row in rows:
            assert row.simulated_mean <= row.simulated_worst + 1e-12

    def test_priority_helps_the_urgent_class_in_simulation_too(self, rows):
        fcfs = next(r for r in rows if r.policy == "fcfs"
                    and r.priority is PriorityClass.URGENT)
        priority = next(r for r in rows if r.policy == "strict-priority"
                        and r.priority is PriorityClass.URGENT)
        assert priority.simulated_worst <= fcfs.simulated_worst + 1e-9
        assert priority.analytic_bound < fcfs.analytic_bound
