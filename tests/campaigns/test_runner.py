"""The campaign runner: batched analysis with and without memoization."""

import math

import pytest

from repro.analysis.paper_model import PaperCaseStudy
from repro.campaigns import (
    AnalysisCache,
    CampaignRunner,
    Scenario,
    TopologySpec,
    WorkloadSpec,
    builtin_scenarios,
    select,
)

SPEC = WorkloadSpec(station_count=8, seed=3)

PAPER = Scenario(name="t-paper", description="paper single point",
                 workload=SPEC)
LADDER = [Scenario(name=f"t-x{k}", description="rung",
                   workload=WorkloadSpec(station_count=8, seed=3,
                                         replication=k))
          for k in (1, 2, 4, 8)]


class TestAgainstPaperCaseStudy:
    """The memoized pipeline must reproduce the E1 reference analysis."""

    @pytest.fixture(scope="class")
    def result(self):
        return CampaignRunner().run([PAPER]).results[0]

    @pytest.fixture(scope="class")
    def study(self):
        return PaperCaseStudy(SPEC.build())

    def test_fcfs_bounds_match_figure1(self, result, study):
        reference = {row.priority: row for row in study.figure1_rows()}
        for row in result.rows_for("fcfs"):
            assert row.bound == pytest.approx(
                reference[row.priority].fcfs_bound)

    def test_priority_bounds_match_figure1(self, result, study):
        reference = {row.priority: row for row in study.figure1_rows()}
        for row in result.rows_for("strict-priority"):
            assert row.bound == pytest.approx(
                reference[row.priority].priority_bound)
            assert row.message_count == reference[row.priority].message_count
            assert row.deadline == reference[row.priority].deadline

    def test_feasibility_verdicts_match_the_paper_claims(self, result, study):
        assert result.feasible("fcfs") is not study.fcfs_violates_constraints()
        assert result.feasible("strict-priority") \
            == study.priority_meets_all_constraints()


class TestMemoizedEqualsNaive:
    def test_every_row_is_identical(self):
        memoized = CampaignRunner().run(builtin_scenarios())
        naive = CampaignRunner(memoize=False).run(builtin_scenarios())
        assert len(memoized.rows()) == len(naive.rows())
        for a, b in zip(memoized.rows(), naive.rows()):
            assert (a.scenario, a.policy, a.priority) \
                == (b.scenario, b.policy, b.priority)
            assert a.stable == b.stable
            assert a.message_count == b.message_count
            # Bit-identical, no tolerance: both modes feed the same
            # closed form with bit-identical aggregates.
            assert a.bound == b.bound
            assert a.backlog_bits == b.backlog_bits

    def test_naive_mode_keeps_no_cache_statistics(self):
        result = CampaignRunner(memoize=False).run([PAPER])
        assert result.stats == {}


class TestMemoization:
    def test_ladder_builds_the_base_set_once(self):
        runner = CampaignRunner()
        result = runner.run(LADDER)
        assert result.stats["base_sets"].misses == 1
        assert result.stats["base_aggregates"].hits == len(LADDER) - 1

    def test_a_warm_cache_is_reused_across_campaigns(self):
        cache = AnalysisCache()
        CampaignRunner(cache).run(LADDER)
        second = CampaignRunner(cache).run(LADDER)
        assert second.stats["aggregates"].misses == len(LADDER)
        assert second.stats["aggregates"].hits == len(LADDER)

    def test_result_stats_are_snapshots_not_live_counters(self):
        runner = CampaignRunner()
        first = runner.run(LADDER)
        before = (first.stats["aggregates"].hits,
                  first.stats["aggregates"].misses)
        runner.run(LADDER)  # keeps mutating the shared cache
        assert (first.stats["aggregates"].hits,
                first.stats["aggregates"].misses) == before


class TestOverload:
    def test_unstable_classes_are_reported_not_raised(self):
        result = CampaignRunner().run(select("overload")).results[0]
        fcfs = result.rows_for("fcfs")
        assert fcfs and all(math.isinf(row.bound) and not row.stable
                            for row in fcfs)
        priority = result.rows_for("strict-priority")
        assert any(row.stable for row in priority)
        assert any(not row.stable for row in priority)
        assert not result.feasible("fcfs")


class TestMultiHop:
    def test_extra_multiplexing_points_increase_the_bound(self):
        star = Scenario(name="t-star", description="", workload=SPEC)
        tree = Scenario(name="t-tree", description="", workload=SPEC,
                        topology=TopologySpec(kind="tree"))
        result = CampaignRunner().run([star, tree])
        one, three = result.results
        for near, far in zip(one.rows, three.rows):
            assert far.bound > near.bound
            assert far.hops == 3 and near.hops == 1


class TestRendering:
    @pytest.fixture(scope="class")
    def result(self):
        return CampaignRunner().run([PAPER] + LADDER[1:])

    def test_ascii_tables(self, result):
        text = result.to_table()
        assert "Campaign summary" in text
        assert "Per-class worst-case bounds" in text
        assert "t-paper" in text and "t-x8" in text

    def test_markdown_tables(self, result):
        markdown = result.to_markdown()
        assert "### Campaign summary" in markdown
        assert "| --- |" in markdown

    def test_csv_round_trip(self, result, tmp_path):
        target = tmp_path / "campaign.csv"
        result.write_csv(target)
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("scenario,policy,priority")
        assert len(lines) == len(result.rows()) + 1


class TestParallelJobs:
    """CampaignRunner(jobs=N): process fan-out over the scenarios."""

    def test_rows_identical_to_the_sequential_run(self):
        scenarios = builtin_scenarios()
        sequential = CampaignRunner().run(scenarios)
        parallel = CampaignRunner(jobs=3).run(scenarios)
        assert [r.scenario.name for r in parallel.results] == \
            [r.scenario.name for r in sequential.results]
        assert [r.rows for r in parallel.results] == \
            [r.rows for r in sequential.results]

    def test_naive_mode_also_fans_out(self):
        parallel = CampaignRunner(memoize=False, jobs=2).run(LADDER)
        sequential = CampaignRunner(memoize=False).run(LADDER)
        assert [r.rows for r in parallel.results] == \
            [r.rows for r in sequential.results]

    def test_parallel_runs_report_no_cache_statistics(self):
        result = CampaignRunner(jobs=2).run(LADDER)
        assert result.stats == {}

    def test_single_scenario_stays_in_process(self):
        result = CampaignRunner(jobs=4).run([PAPER])
        assert result.stats  # in-process memoized path keeps its counters

    def test_invalid_job_count_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(jobs=0)
