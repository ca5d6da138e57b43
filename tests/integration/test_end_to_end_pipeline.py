"""Integration: the full migration pipeline from 1553B to switched Ethernet."""

import pytest

from repro import (
    EthernetNetworkSimulator,
    MajorFrameSchedule,
    Milstd1553BusSimulator,
    PriorityClass,
    units,
)
from repro.analysis import (
    baseline_1553_report,
    jitter_comparison,
    technology_comparison,
)
from repro.analysis.validation import star_for_stations
from repro.milstd1553 import Milstd1553Analysis
from repro.workloads import (
    generate_real_case,
    load_message_set_csv,
    save_message_set_csv,
)


class TestWorkloadRoundTripThroughTheWholeStack:
    def test_csv_exported_workload_reproduces_the_same_bounds(self, real_case,
                                                              tmp_path):
        from repro import PaperCaseStudy
        path = tmp_path / "workload.csv"
        save_message_set_csv(real_case, path)
        reloaded = load_message_set_csv(path)
        original = PaperCaseStudy(real_case).class_bounds("strict-priority")
        roundtrip = PaperCaseStudy(reloaded).class_bounds("strict-priority")
        for cls, bound in original.items():
            assert roundtrip[cls] == pytest.approx(bound)


class TestMigrationStory:
    """The complete E3 + E4 + E6 chain on one (small) message set."""

    def test_both_worlds_run_on_the_same_message_set(self, small_case):
        # 1553B side: schedule, analysis, simulation.
        schedule = MajorFrameSchedule(small_case)
        schedule.validate()
        bus_results = Milstd1553BusSimulator(
            small_case, schedule=schedule).run(duration=units.ms(320))
        assert bus_results.instances_delivered > 0

        # Ethernet side: simulation on the star topology.
        network = star_for_stations(small_case.stations(), units.mbps(10),
                                    units.us(16))
        ethernet_results = EthernetNetworkSimulator(
            network, small_case.messages,
            policy="strict-priority").run(duration=units.ms(320))
        assert ethernet_results.frames_dropped == 0

        # Every periodic stream is delivered at least as often on Ethernet
        # as on the bus (the bus serves it per schedule slot, Ethernet per
        # release).
        for message in small_case.periodic():
            assert ethernet_results.flow_latencies[message.name].count >= \
                bus_results.message_latencies[message.name].count

    def test_comparison_report_tells_the_migration_story(self, small_case):
        rows = technology_comparison(small_case)
        urgent = next(r for r in rows if r.priority is PriorityClass.URGENT)
        assert not urgent.milstd1553_ok
        assert urgent.priority_ok
        assert all(row.priority_ok for row in rows)

    def test_baseline_report_and_bus_analysis_agree(self, small_case):
        report = baseline_1553_report(small_case,
                                      simulation_duration=units.ms(320))
        analysis = Milstd1553Analysis(MajorFrameSchedule(small_case))
        worst = max(bound.bound for bound in analysis.all_bounds().values())
        assert max(report.analytic_worst_per_class.values()) == \
            pytest.approx(worst)

    def test_jitter_study_covers_every_technology_and_class(self, small_case):
        rows = jitter_comparison(small_case, duration=units.ms(320))
        technologies = {row.technology for row in rows}
        assert technologies == {"mil-std-1553b", "ethernet-fcfs",
                                "ethernet-priority"}
        ethernet_rows = [row for row in rows
                         if row.technology == "ethernet-priority"]
        assert {row.priority for row in ethernet_rows} == set(PriorityClass)


class TestScalabilityOfTheAnalysis:
    def test_analysis_handles_a_much_larger_system(self):
        from repro import PaperCaseStudy
        from repro.workloads import RealCaseParameters, scale_station_count
        base = generate_real_case(RealCaseParameters(station_count=16),
                                  seed=2)
        large = scale_station_count(base, 4)  # 64 stations, ~576 messages
        study = PaperCaseStudy(large, capacity=units.mbps(100))
        rows = study.figure1_rows()
        assert sum(row.message_count for row in rows) == len(large)
        # At 100 Mbps even the larger system meets every constraint with
        # priorities.
        assert study.priority_meets_all_constraints()
