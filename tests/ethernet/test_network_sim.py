"""The assembled switched-Ethernet simulation."""

import pytest

from repro import EthernetNetworkSimulator, Message, PriorityClass, units
from repro.errors import ConfigurationError, SimulationNotRunError
from repro.topology import dual_switch_topology, single_switch_star


def star_messages():
    return [
        Message.periodic("nav", period=units.ms(20),
                         size=units.words1553(16),
                         source="station-00", destination="station-01"),
        Message.sporadic("alarm", min_interarrival=units.ms(20),
                         size=units.words1553(2),
                         source="station-02", destination="station-01",
                         deadline=units.ms(3)),
        Message.sporadic("bulk", min_interarrival=units.ms(160),
                         size=units.bytes_(3000),
                         source="station-03", destination="station-00"),
    ]


class TestBasicOperation:
    def test_all_instances_delivered_without_drops(self):
        network = single_switch_star(4)
        simulator = EthernetNetworkSimulator(network, star_messages(),
                                             policy="strict-priority")
        results = simulator.run(duration=units.ms(100))
        assert results.instances_sent > 0
        assert results.instances_delivered == results.instances_sent
        assert results.frames_dropped == 0
        assert results.delivery_ratio == pytest.approx(1.0)

    def test_expected_instance_count(self):
        network = single_switch_star(4)
        simulator = EthernetNetworkSimulator(network, star_messages(),
                                             policy="fcfs")
        results = simulator.run(duration=units.ms(100))
        # nav: 5 instances, alarm: 5, bulk: 1 (greedy synchronised sources).
        assert results.instances_sent == 11

    def test_latencies_recorded_per_flow_and_per_class(self):
        network = single_switch_star(4)
        simulator = EthernetNetworkSimulator(network, star_messages())
        results = simulator.run(duration=units.ms(100))
        assert results.flow_summary("nav").count == 5
        assert results.class_summary(PriorityClass.URGENT).count == 5
        assert results.worst_latency("nav") > 0

    def test_link_utilization_reported(self):
        network = single_switch_star(4)
        simulator = EthernetNetworkSimulator(network, star_messages())
        results = simulator.run(duration=units.ms(100))
        uplink = results.link_utilization["station-00->switch-0"]
        assert 0 < uplink < 1
        # The downlink toward the destination also carried traffic.
        assert results.link_utilization["switch-0->station-01"] > 0

    def test_results_property_requires_run(self):
        network = single_switch_star(4)
        simulator = EthernetNetworkSimulator(network, star_messages())
        with pytest.raises(SimulationNotRunError):
            __ = simulator.results

    def test_latency_includes_shaping_and_relaying(self):
        network = single_switch_star(4, technology_delay=units.us(16))
        simulator = EthernetNetworkSimulator(network, star_messages())
        results = simulator.run(duration=units.ms(100))
        from repro.ethernet.frame import wire_burst
        nav = next(m for m in star_messages() if m.name == "nav")
        minimum = 2 * wire_burst(nav) / units.mbps(10) + units.us(16)
        assert results.flow_summary("nav").minimum >= minimum - 1e-9


class TestPoliciesAndScenarios:
    def test_priority_policy_helps_the_urgent_class_under_contention(self):
        # The same station emits several large background messages plus one
        # urgent alarm (listed last, so under FCFS it queues behind them at
        # the station's uplink multiplexer); the strict-priority multiplexer
        # lets the alarm overtake everything that has not started
        # transmission yet.
        messages = [
            Message.sporadic(f"bulk-{index}", min_interarrival=units.ms(40),
                             size=units.bytes_(1500),
                             source="station-01", destination="station-00")
            for index in range(3)
        ]
        messages.append(Message.sporadic(
            "alarm", min_interarrival=units.ms(20),
            size=units.words1553(2),
            source="station-01", destination="station-00",
            deadline=units.ms(3)))
        network = single_switch_star(4)
        fcfs = EthernetNetworkSimulator(network, messages, policy="fcfs",
                                        scenario="synchronized").run(
            duration=units.ms(80))
        priority = EthernetNetworkSimulator(network, messages,
                                            policy="strict-priority",
                                            scenario="synchronized").run(
            duration=units.ms(80))
        assert priority.worst_class_latency(PriorityClass.URGENT) < \
            fcfs.worst_class_latency(PriorityClass.URGENT)

    def test_staggered_scenario_reduces_contention(self):
        network = single_switch_star(4)
        synchronized = EthernetNetworkSimulator(
            network, star_messages(), scenario="synchronized").run(
            duration=units.ms(160))
        staggered = EthernetNetworkSimulator(
            network, star_messages(), scenario="staggered", seed=4).run(
            duration=units.ms(160))
        assert staggered.class_summary(PriorityClass.PERIODIC).maximum <= \
            synchronized.class_summary(PriorityClass.PERIODIC).maximum + 1e-9

    def test_random_scenario_is_reproducible(self):
        network = single_switch_star(4)
        first = EthernetNetworkSimulator(network, star_messages(),
                                         scenario="random", seed=9).run(
            duration=units.ms(100))
        second = EthernetNetworkSimulator(network, star_messages(),
                                          scenario="random", seed=9).run(
            duration=units.ms(100))
        assert first.flow_latencies["nav"].samples == \
            second.flow_latencies["nav"].samples

    def test_unknown_policy_rejected(self):
        network = single_switch_star(4)
        with pytest.raises(ConfigurationError):
            EthernetNetworkSimulator(network, star_messages(),
                                     policy="round-robin")

    def test_unknown_scenario_rejected(self):
        network = single_switch_star(4)
        with pytest.raises(ConfigurationError):
            EthernetNetworkSimulator(network, star_messages(),
                                     scenario="bursty")

    def test_empty_flow_list_rejected(self):
        network = single_switch_star(4)
        with pytest.raises(ConfigurationError):
            EthernetNetworkSimulator(network, [])

    def test_invalid_duration_rejected(self):
        network = single_switch_star(4)
        simulator = EthernetNetworkSimulator(network, star_messages())
        with pytest.raises(ConfigurationError):
            simulator.run(duration=0.0)


class TestMultiSwitch:
    def test_cross_switch_traffic_is_delivered(self):
        network = dual_switch_topology(stations_per_switch=2)
        messages = [
            Message.periodic("cross", period=units.ms(20),
                             size=units.words1553(16),
                             source="station-00", destination="station-03"),
            Message.periodic("local", period=units.ms(20),
                             size=units.words1553(16),
                             source="station-02", destination="station-03"),
        ]
        simulator = EthernetNetworkSimulator(network, messages,
                                             policy="strict-priority")
        results = simulator.run(duration=units.ms(100))
        assert results.instances_delivered == results.instances_sent
        assert results.link_utilization["switch-0->switch-1"] > 0

    def test_tiny_queues_cause_drops_when_shaping_disabled(self):
        network = single_switch_star(4)
        messages = [
            Message.sporadic(f"burst-{index}", min_interarrival=units.ms(20),
                             size=units.bytes_(1500),
                             source=f"station-{index:02d}",
                             destination="station-00")
            for index in range(1, 4)
        ]
        simulator = EthernetNetworkSimulator(
            network, messages, policy="fcfs", shaping_enabled=False,
            queue_capacity=units.bytes_(2000))
        results = simulator.run(duration=units.ms(100))
        assert results.frames_dropped > 0
        assert results.instances_delivered < results.instances_sent


class TestTraceToggleAfterConstruction:
    def test_enabling_the_shared_trace_after_build_records_events(
            self, small_case):
        # TraceRecorder.enabled is a public mutable attribute: flipping it
        # on after the network is built must still produce a frame-level
        # trace (the hot-path guards read it live, not a snapshot).
        from repro.analysis.validation import star_for_stations
        from repro.ethernet.network_sim import EthernetNetworkSimulator
        from repro import units

        network = star_for_stations(small_case.stations(), units.mbps(10),
                                    units.us(16))
        simulator = EthernetNetworkSimulator(
            network, small_case.messages, policy="fcfs",
            scenario="synchronized", seed=1)
        simulator.trace.enabled = True
        simulator.run(duration=units.ms(40))
        assert len(simulator.trace) > 0
        categories = {entry.category for entry in simulator.trace}
        assert "frame.tx_start" in categories
        assert "instance.delivered" in categories
