"""The fuzz campaign: invariants, store resume, shrinking, persistence."""

import dataclasses
import gc
import math
import weakref

import pytest

from repro.campaigns.cache import AnalysisCache
from repro.campaigns.scenario import Scenario, TopologySpec, WorkloadSpec
from repro.errors import ConfigurationError
from repro.flows.priorities import PriorityClass
from repro.fuzz import (
    FuzzBoundRow,
    FuzzCampaign,
    FuzzPortRow,
    FuzzResult,
    GeneratorConfig,
    ScenarioGenerator,
    evaluate_scenario,
    minimize_scenario,
    persist_interesting,
)
from repro.fuzz.campaign import (
    FuzzCell,
    FuzzOutcome,
    _evaluate_cell,
    _init_worker,
    _invariant_violations,
    _outcome_from_payload,
    _outcome_to_payload,
)
from repro.store import ResultStore, canonical_json
from repro import units

#: A fast generator slice: small stars only, no replication, 10 Mbps.
FAST = GeneratorConfig(
    station_counts=(4, 5), replications=(1,),
    topology_kinds=("single-switch-star",), capacities_mbps=(10.0,),
    size_factors=(0.5, 1.0))

#: A short horizon keeps each double-evaluated cell around 50 ms.
HORIZON = units.ms(40)


def _campaign(**overrides) -> FuzzCampaign:
    options = dict(count=3, seed=1, config=FAST, duration=HORIZON)
    options.update(overrides)
    return FuzzCampaign(**options)


def _result_payloads(result: FuzzResult) -> str:
    """The deterministic substance of a result (wall-clock excluded)."""
    payloads = [_outcome_to_payload(outcome)
                for outcome in result.outcomes]
    return canonical_json([{"measurement": payload["measurement"],
                            "violations": payload["violations"]}
                           for payload in payloads])


class TestCampaignRuns:
    def test_invariants_hold_on_the_fast_slice(self):
        result = _campaign().run()
        assert result.cells == 3
        assert result.all_invariants_hold
        assert result.violation_count == 0
        assert result.events_processed > 0

    def test_same_seed_is_byte_identical(self):
        assert (_result_payloads(_campaign().run())
                == _result_payloads(_campaign().run()))

    def test_jobs_do_not_change_the_result(self):
        single = _campaign().run()
        parallel = _campaign(jobs=2).run()
        assert _result_payloads(single) == _result_payloads(parallel)

    def test_table_lists_the_tightest_cells(self):
        result = _campaign().run()
        table = result.to_table()
        assert "Tightest fuzzed cells" in table
        assert "fuzz-1-0000" in table
        assert "### Tightest fuzzed cells" in result.to_markdown()

    def test_write_csv_is_deterministic(self, tmp_path):
        result = _campaign().run()
        result.write_csv(tmp_path / "a.csv")
        result.write_csv(tmp_path / "b.csv")
        first = (tmp_path / "a.csv").read_bytes()
        assert first == (tmp_path / "b.csv").read_bytes()
        header = first.decode().splitlines()[0]
        assert "tightness" in header and "stable" in header

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            FuzzCampaign(count=0)
        with pytest.raises(ConfigurationError):
            FuzzCampaign(count=1, jobs=0)
        with pytest.raises(ConfigurationError):
            FuzzCampaign(count=1, duration=0.0)
        with pytest.raises(ConfigurationError):
            FuzzCampaign(count=1, tightness_threshold=0.0)
        with pytest.raises(ConfigurationError):
            FuzzCampaign(count=1, seed=-2)


class TestWorkerMemory:
    def test_a_worker_keeps_no_analysis_cache_of_a_finished_cell(
            self, monkeypatch):
        """Generated cells share no workload, so each cell's memoized
        runner is its own: a worker that moved on holds none of the
        first cell's cached message sets and aggregates."""
        caches = []
        original = AnalysisCache.__init__

        def tracked(self):
            original(self)
            caches.append(weakref.ref(self))

        monkeypatch.setattr(AnalysisCache, "__init__", tracked)
        _init_worker()
        first, second = _campaign(count=2).cells()
        _evaluate_cell(first)
        first_caches = list(caches)
        _evaluate_cell(second)
        assert len(caches) > len(first_caches) > 0
        gc.collect()
        assert all(ref() is None for ref in first_caches)


class TestStoreResume:
    def test_resume_is_byte_identical_to_the_cold_run(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cold = _campaign(store=store).run()
        assert cold.resumed == 0
        warm = _campaign(store=ResultStore(tmp_path / "store"),
                         resume=True).run()
        assert warm.resumed == warm.cells == cold.cells
        assert all(outcome.resumed for outcome in warm.outcomes)
        assert _result_payloads(warm) == _result_payloads(cold)

    def test_interrupted_campaign_picks_up_where_it_stopped(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _campaign(count=2, store=store).run()
        # A longer campaign over the same stream reuses the finished
        # prefix and computes only the new cells.
        longer = _campaign(count=4, store=ResultStore(tmp_path / "store"),
                           resume=True).run()
        assert longer.resumed == 2
        assert longer.cells == 4
        assert (_result_payloads(longer)
                == _result_payloads(_campaign(count=4).run()))

    def test_without_resume_the_store_is_write_only(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _campaign(store=store).run()
        rerun_store = ResultStore(tmp_path / "store")
        rerun = _campaign(store=rerun_store).run()
        assert rerun.resumed == 0
        assert rerun_store.stats.hits == 0


class TestOutcomePayloads:
    def test_round_trip_is_identity(self):
        outcome = _campaign(count=1).run().outcomes[0]
        payload = _outcome_to_payload(outcome)
        rebuilt = _outcome_from_payload(outcome.cell, payload)
        assert canonical_json(_outcome_to_payload(rebuilt)) \
            == canonical_json(payload)
        assert rebuilt.resumed

    def test_bound_row_tightness_handles_non_finite_bounds(self):
        finite = FuzzBoundRow(policy="fcfs", priority=PriorityClass.URGENT,
                              analytic_bound=0.004, worst_simulated=0.002,
                              mean_simulated=0.001, samples=5)
        assert finite.tightness == pytest.approx(0.5)
        assert finite.bound_holds
        unstable = dataclasses.replace(finite,
                                       analytic_bound=float("inf"))
        assert math.isnan(unstable.tightness)
        assert unstable.bound_holds  # inf dominates everything

    def test_result_max_tightness_sentinel(self):
        assert math.isnan(FuzzResult(outcomes=[]).max_tightness)
        assert not FuzzResult(outcomes=[]).all_invariants_hold


class TestInterestingAndPersistence:
    def _near_tight(self, threshold=0.0):
        result = _campaign().run()
        result.tightness_threshold = threshold
        return result

    def test_zero_threshold_marks_every_holding_cell_interesting(self):
        result = self._near_tight()
        interesting = result.interesting()
        assert len(interesting) == result.cells
        ratios = [outcome.max_tightness for outcome in interesting]
        assert ratios == sorted(ratios, reverse=True)

    def test_high_threshold_marks_none(self):
        result = self._near_tight(threshold=2.0)
        assert result.interesting() == []

    def test_persist_writes_minimized_content_addressed_entries(
            self, tmp_path):
        result = self._near_tight()
        update = persist_interesting(result, generator_seed=1,
                                     directory=tmp_path, limit=2)
        assert len(update.added) <= 2
        assert update.added
        for name in update.added:
            assert name.startswith("near-tight-")
            assert (tmp_path / name).is_file()
        assert str(tmp_path) in update.describe()

    def test_persist_is_idempotent(self, tmp_path):
        result = self._near_tight()
        first = persist_interesting(result, generator_seed=1,
                                    directory=tmp_path, limit=2)
        second = persist_interesting(result, generator_seed=1,
                                     directory=tmp_path, limit=2)
        assert second.added == [] and second.updated == []
        assert sorted(second.unchanged) == sorted(first.added)

    def test_empty_result_touches_nothing(self, tmp_path):
        update = persist_interesting(
            self._near_tight(threshold=2.0), generator_seed=1,
            directory=tmp_path)
        assert update.total == 0
        assert not (tmp_path / "anything").exists()
        assert list(tmp_path.iterdir()) == []


class TestMinimize:
    def _scenario(self) -> Scenario:
        return Scenario(
            name="shrink-me", description="a deliberately baroque scenario",
            workload=WorkloadSpec(station_count=8, seed=3, size_factor=2.0,
                                  replication=2),
            topology=TopologySpec(kind="tree", leaf_count=3),
            capacity=units.mbps(10), technology_delay=units.us(16),
            policies=("fcfs", "strict-priority"))

    def test_always_true_predicate_shrinks_to_the_simplest_form(self):
        minimized, outcome = minimize_scenario(
            self._scenario(), lambda outcome: True, duration=HORIZON)
        assert minimized.workload.replication == 1
        assert minimized.workload.size_factor == 1.0
        assert minimized.workload.station_count == 4
        assert minimized.topology.kind == "single-switch-star"
        assert len(minimized.policies) == 1
        assert outcome.cell.scenario == minimized

    def test_predicate_failures_keep_the_original(self):
        scenario = self._scenario()
        fussy = (lambda outcome:
                 outcome.cell.scenario.workload.replication == 2)
        minimized, _ = minimize_scenario(scenario, fussy, duration=HORIZON)
        assert minimized.workload.replication == 2

    def test_unsatisfied_input_is_an_error(self):
        with pytest.raises(ValueError):
            minimize_scenario(self._scenario(), lambda outcome: False,
                              duration=HORIZON)


class TestEvaluateScenario:
    def test_overloaded_scenario_is_trivially_sound(self):
        # 1 Mbps under a heavy replicated workload overloads the link:
        # the analysis must report inf bounds (not crash) and the
        # invariants must still hold.
        scenario = Scenario(
            name="overloaded", description="deliberate overload",
            workload=WorkloadSpec(station_count=16, seed=0, size_factor=3.0,
                                  replication=3),
            topology=TopologySpec(),
            capacity=units.mbps(1), technology_delay=units.us(16),
            policies=("fcfs",))
        outcome = evaluate_scenario(scenario, duration=HORIZON)
        assert outcome.holds
        assert all(math.isinf(row.analytic_bound)
                   for row in outcome.bound_rows)
        assert math.isnan(outcome.max_tightness)
        assert any(not row.stable for row in outcome.campaign_rows)

    def test_cells_match_the_generator_stream(self):
        campaign = _campaign(count=2)
        cells = campaign.cells()
        assert [cell.index for cell in cells] == [0, 1]
        generator = ScenarioGenerator(1, FAST)
        assert [cell.scenario for cell in cells] \
            == [generator.scenario(0), generator.scenario(1)]
        assert all(isinstance(cell, FuzzCell) for cell in cells)

    def test_outcome_exposes_the_verdicts(self):
        outcome = evaluate_scenario(ScenarioGenerator(1, FAST).scenario(0),
                                    duration=HORIZON)
        assert isinstance(outcome, FuzzOutcome)
        assert outcome.holds
        assert outcome.bound_rows
        assert math.isfinite(outcome.max_tightness)


#: A fast multi-hop slice: small graph fabrics only.
FAST_GRAPH = GeneratorConfig(
    station_counts=(4, 5), replications=(1,),
    topology_kinds=("graph",), capacities_mbps=(10.0,),
    size_factors=(0.5, 1.0),
    graph_families=("diamond", "ring", "random"),
    graph_switch_counts=(3, 4), graph_seeds=(0, 1),
    graph_extra_links=(0, 1))


class TestMultiHopCells:
    def _graph_campaign(self, **overrides) -> FuzzCampaign:
        options = dict(count=3, seed=2, config=FAST_GRAPH,
                       duration=HORIZON)
        options.update(overrides)
        return FuzzCampaign(**options)

    def test_graph_cells_generate_and_hold(self):
        result = self._graph_campaign().run()
        assert result.cells == 3
        assert result.all_invariants_hold
        for outcome in result.outcomes:
            assert outcome.cell.scenario.topology.kind == "graph"
            assert outcome.bound_rows, "per-class end-to-end rows expected"

    def test_graph_cells_carry_per_port_backlog_rows(self):
        result = self._graph_campaign(count=2).run()
        for outcome in result.outcomes:
            assert outcome.port_rows, "graph cells must check every port"
            policies = {row.policy for row in outcome.port_rows}
            assert policies == set(outcome.cell.scenario.policies)
            for row in outcome.port_rows:
                assert isinstance(row, FuzzPortRow)
                assert row.bound_holds

    def test_legacy_cells_have_no_port_rows(self):
        result = _campaign(count=1).run()
        assert result.outcomes[0].port_rows == ()

    def test_port_payload_round_trip(self):
        outcome = self._graph_campaign(count=1).run().outcomes[0]
        payload = _outcome_to_payload(outcome)
        assert payload["measurement"]["ports"], "ports must be serialized"
        rebuilt = _outcome_from_payload(outcome.cell, payload)
        assert rebuilt.port_rows == outcome.port_rows
        assert canonical_json(_outcome_to_payload(rebuilt)) \
            == canonical_json(payload)

    def test_graph_store_resume_is_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cold = self._graph_campaign(store=store).run()
        warm = self._graph_campaign(store=ResultStore(tmp_path / "store"),
                                    resume=True).run()
        assert warm.resumed == warm.cells == cold.cells
        assert _result_payloads(warm) == _result_payloads(cold)

    def test_backlog_violation_is_reported(self):
        bad = FuzzPortRow(policy="fcfs", node="sw-a", toward="sw-b",
                          backlog_bound=1_000.0, observed_bits=2_000.0)
        assert not bad.bound_holds
        violations = _invariant_violations([], [], [bad])
        assert len(violations) == 1
        assert "backlog" in violations[0]
        assert "sw-a->sw-b" in violations[0]
        good = dataclasses.replace(bad, observed_bits=500.0)
        assert _invariant_violations([], [], [good]) == []

    def test_minimized_graph_witness_keeps_its_shape(self):
        scenario = ScenarioGenerator(2, FAST_GRAPH).scenario(0)
        assert scenario.topology.kind == "graph"
        keeps_kind = (lambda outcome:
                      outcome.cell.scenario.topology.kind == "graph")
        minimized, _ = minimize_scenario(scenario, keeps_kind,
                                         duration=HORIZON)
        assert minimized.topology.kind == "graph"
        # The graph-specific shrinks still fire: the witness collapses
        # toward the canonical diamond with no extra links.
        assert minimized.topology.graph_family == "diamond"
        assert minimized.topology.graph_extra_links == 0
