"""End-to-end analysis over a routed topology."""

import pytest

from repro import EndToEndAnalysis, Flow, Message, units
from repro.flows.priorities import PriorityClass
from repro.topology import dual_switch_topology, single_switch_star


def star_messages():
    return [
        Message.periodic("nav", period=units.ms(20), size=1000,
                         source="station-00", destination="station-01"),
        Message.sporadic("alarm", min_interarrival=units.ms(20), size=200,
                         source="station-02", destination="station-01",
                         deadline=units.ms(3)),
        Message.sporadic("bulk", min_interarrival=units.ms(160), size=8000,
                         source="station-03", destination="station-01"),
    ]


class TestStarTopology:
    def test_every_flow_gets_a_two_hop_bound(self):
        network = single_switch_star(4, capacity=units.mbps(10))
        analysis = EndToEndAnalysis(network, policy="strict-priority")
        result = analysis.analyze(star_messages())
        assert len(result) == 3
        for bound in result:
            assert len(bound.hops) == 2
            assert bound.hops[0].node.startswith("station-")
            assert bound.hops[1].node == "switch-0"

    def test_total_is_the_sum_of_hops(self):
        network = single_switch_star(4)
        result = EndToEndAnalysis(network, policy="fcfs").analyze(
            star_messages())
        for bound in result:
            assert bound.total_delay == pytest.approx(
                sum(hop.total for hop in bound.hops))

    def test_switch_hop_includes_technology_delay(self):
        network = single_switch_star(4, technology_delay=units.us(100))
        result = EndToEndAnalysis(network, policy="fcfs").analyze(
            star_messages())
        bound = result.bound_for("nav")
        assert bound.hops[1].multiplexer_bound.technology_delay == \
            pytest.approx(units.us(100))
        assert bound.hops[0].multiplexer_bound.technology_delay == 0.0

    def test_priority_improves_the_urgent_flow(self):
        network = single_switch_star(4)
        fcfs = EndToEndAnalysis(network, policy="fcfs").analyze(star_messages())
        priority = EndToEndAnalysis(network, policy="strict-priority").analyze(
            star_messages())
        assert priority.bound_for("alarm").total_delay < \
            fcfs.bound_for("alarm").total_delay

    def test_deadline_checking(self):
        network = single_switch_star(4)
        result = EndToEndAnalysis(network, policy="strict-priority").analyze(
            star_messages())
        alarm = result.bound_for("alarm")
        assert alarm.deadline == pytest.approx(units.ms(3))
        assert alarm.meets_deadline
        assert alarm.margin == pytest.approx(
            units.ms(3) - alarm.total_delay)

    def test_flow_without_deadline_always_meets_it(self):
        network = single_switch_star(4)
        result = EndToEndAnalysis(network, policy="fcfs").analyze(
            star_messages())
        bulk = result.bound_for("bulk")
        assert bulk.deadline is None
        assert bulk.meets_deadline
        assert bulk.margin is None


class TestResultContainer:
    def test_worst_per_class(self):
        network = single_switch_star(4)
        result = EndToEndAnalysis(network, policy="strict-priority").analyze(
            star_messages())
        worst = result.worst_per_class()
        assert set(worst) == {PriorityClass.URGENT, PriorityClass.PERIODIC,
                              PriorityClass.BACKGROUND}
        assert worst[PriorityClass.URGENT].name == "alarm"

    def test_unknown_flow_lookup_raises(self):
        network = single_switch_star(4)
        result = EndToEndAnalysis(network, policy="fcfs").analyze(
            star_messages())
        with pytest.raises(KeyError):
            result.bound_for("missing")

    def test_violations_and_all_deadlines_met(self):
        network = single_switch_star(4)
        result = EndToEndAnalysis(network, policy="strict-priority").analyze(
            star_messages())
        assert result.all_deadlines_met
        assert result.violations() == []

    def test_max_delay(self):
        network = single_switch_star(4)
        result = EndToEndAnalysis(network, policy="fcfs").analyze(
            star_messages())
        assert result.max_delay() == max(b.total_delay for b in result)

    def test_empty_analysis(self):
        network = single_switch_star(4)
        result = EndToEndAnalysis(network, policy="fcfs").analyze([])
        assert len(result) == 0


class TestBurstPropagation:
    def test_cross_switch_flow_has_three_hops(self):
        network = dual_switch_topology(stations_per_switch=2)
        messages = [Message.periodic("cross", period=units.ms(20), size=2000,
                                     source="station-00",
                                     destination="station-02")]
        result = EndToEndAnalysis(network, policy="fcfs").analyze(messages)
        assert len(result.bound_for("cross").hops) == 3


class TestInputs:
    def test_accepts_already_routed_flows(self):
        network = single_switch_star(4)
        flow = Flow(star_messages()[0]).with_path(
            ["station-00", "switch-0", "station-01"])
        result = EndToEndAnalysis(network, policy="fcfs").analyze([flow])
        assert result.bound_for("nav").hops[0].node == "station-00"

    def test_invalid_policy_rejected(self):
        network = single_switch_star(4)
        with pytest.raises(ValueError):
            EndToEndAnalysis(network, policy="weighted-fair")
