"""E1 — the paper's case study and its headline claims."""

import pytest

from repro import Message, MessageSet, PaperCaseStudy, PriorityClass, units
from repro.errors import EmptyAggregateError


class TestFigure1OnTheRealCase:
    """The four qualitative findings of Figure 1 must reproduce."""

    @pytest.fixture(scope="class")
    def study(self, real_case):
        return PaperCaseStudy(real_case)

    def test_fcfs_violates_the_urgent_constraint(self, study):
        assert study.fcfs_violates_constraints()
        rows = {row.priority: row for row in study.figure1_rows()}
        assert not rows[PriorityClass.URGENT].fcfs_meets_deadline

    def test_priority_meets_every_constraint(self, study):
        assert study.priority_meets_all_constraints()

    def test_urgent_priority_bound_is_below_3ms(self, study):
        assert study.urgent_priority_bound_below_3ms()
        bounds = study.class_bounds("strict-priority")
        assert bounds[PriorityClass.URGENT] < units.ms(3)

    def test_periodic_priority_bound_improves_over_fcfs(self, study):
        assert study.periodic_priority_bound_below_fcfs()

    def test_fcfs_bound_is_identical_for_every_class(self, study):
        bounds = set(study.class_bounds("fcfs").values())
        assert len(bounds) == 1

    def test_priority_bounds_are_monotone(self, study):
        bounds = study.class_bounds("strict-priority")
        ordered = [bounds[cls] for cls in sorted(bounds)]
        assert ordered == sorted(ordered)

    def test_unknown_policy_is_rejected(self, study):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            study.class_bounds("weighted-fair")

    def test_rows_cover_all_four_classes(self, study):
        rows = study.figure1_rows()
        assert [row.priority for row in rows] == list(PriorityClass)
        assert sum(row.message_count for row in rows) == 144

    def test_class_deadlines(self, study):
        deadlines = study.class_deadlines()
        assert deadlines[PriorityClass.URGENT] == pytest.approx(units.ms(3))
        assert deadlines[PriorityClass.PERIODIC] == pytest.approx(units.ms(20))
        assert deadlines[PriorityClass.BACKGROUND] is None


class TestScalingBehaviour:
    def test_higher_capacity_removes_the_fcfs_violation(self, real_case):
        fast = PaperCaseStudy(real_case, capacity=units.mbps(100))
        assert not fast.fcfs_violates_constraints()

    def test_fcfs_bound_formula(self, real_case):
        study = PaperCaseStudy(real_case, capacity=units.mbps(10),
                               technology_delay=units.us(16))
        expected = real_case.total_burst() / units.mbps(10) + units.us(16)
        assert study.fcfs_bound() == pytest.approx(expected)

    def test_technology_delay_shifts_every_bound(self, real_case):
        small = PaperCaseStudy(real_case, technology_delay=0.0)
        large = PaperCaseStudy(real_case, technology_delay=units.ms(1))
        assert large.fcfs_bound() - small.fcfs_bound() == pytest.approx(
            units.ms(1))
        delta = (large.class_bounds("strict-priority")[PriorityClass.URGENT]
                 - small.class_bounds("strict-priority")[PriorityClass.URGENT])
        assert delta == pytest.approx(units.ms(1))


class TestSmallSets:
    def test_single_class_set(self):
        message_set = MessageSet([
            Message.periodic("only", period=units.ms(20), size=1000,
                             source="a", destination="b")])
        study = PaperCaseStudy(message_set)
        rows = study.figure1_rows()
        assert len(rows) == 1
        assert rows[0].priority is PriorityClass.PERIODIC
        assert not study.urgent_priority_bound_below_3ms()

    def test_empty_set_rejected(self):
        study = PaperCaseStudy(MessageSet())
        with pytest.raises(EmptyAggregateError):
            study.figure1_rows()


class TestUnboundedRowConvention:
    """Overloaded sets report inf rows — the campaign runner's convention —
    instead of raising UnstableSystemError."""

    @pytest.fixture(scope="class")
    def overloaded(self, real_case):
        from repro.workloads.sweeps import scale_station_count
        # 32x the case study offers ~12.3 Mbps to a 10 Mbps link.
        return PaperCaseStudy(scale_station_count(real_case, 32))

    def test_figure1_rows_do_not_raise(self, overloaded):
        rows = overloaded.figure1_rows()
        assert [row.priority for row in rows] == list(PriorityClass)

    def test_fcfs_rows_are_unbounded_and_unstable(self, overloaded):
        import math
        for row in overloaded.figure1_rows():
            assert not row.fcfs_stable
            assert math.isinf(row.fcfs_bound)
            assert not row.fcfs_feasible

    def test_only_saturated_priority_classes_are_unbounded(self, overloaded):
        import math
        rows = {row.priority: row for row in overloaded.figure1_rows()}
        assert rows[PriorityClass.URGENT].priority_stable
        assert math.isfinite(rows[PriorityClass.URGENT].priority_bound)
        assert not rows[PriorityClass.BACKGROUND].priority_stable
        assert math.isinf(rows[PriorityClass.BACKGROUND].priority_bound)

    def test_headline_claims_report_the_overload(self, overloaded):
        assert overloaded.fcfs_violates_constraints()
        assert not overloaded.priority_meets_all_constraints()

    def test_convention_matches_the_campaign_runner(self, overloaded):
        """Same verdicts as CampaignRunner on the same overloaded traffic."""
        from repro.campaigns import CampaignRunner, WorkloadSpec, Scenario
        scenario = Scenario(
            name="t-overload-32", description="",
            workload=WorkloadSpec(replication=32))
        result = CampaignRunner().run([scenario]).results[0]
        assert result.feasible("fcfs") is \
            (not overloaded.fcfs_violates_constraints())
        assert result.feasible("strict-priority") is \
            overloaded.priority_meets_all_constraints()
        rows = {row.priority: row for row in result.rows_for("fcfs")}
        for fig_row in overloaded.figure1_rows():
            assert rows[fig_row.priority].stable == fig_row.fcfs_stable

    def test_stable_studies_keep_default_flags(self, real_case):
        for row in PaperCaseStudy(real_case).figure1_rows():
            assert row.fcfs_stable and row.priority_stable


class TestMutationAfterConstruction:
    def test_bounds_refresh_when_the_set_mutates(self):
        message_set = MessageSet([
            Message.periodic("a", period=units.ms(20), size=1000,
                             source="s0", destination="sink")])
        study = PaperCaseStudy(message_set)
        before = study.fcfs_bound()
        message_set.add(Message.periodic(
            "b", period=units.ms(20), size=1000,
            source="s1", destination="sink"))
        assert study.fcfs_bound() == pytest.approx(2 * before -
                                                   study.technology_delay)
        assert study.figure1_rows()[0].message_count == 2
