"""Graph campaign rows are the ``calculus`` verdict on the lowered network.

On a graph scenario a campaign row (delay and per-class backlog) bounds
the wire-level messages on the scenario's own network, the system the
simulator runs.  That verdict is computed once per (lowering, policy):
the rows, the ``--engine all`` calculus row and a fuzz cell's soundness
check read one evaluation, and nothing keeps the lowering once the
scenario is finished.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import units
from repro.analysis.engines import CalculusEngine, scenario_inputs
from repro.analysis.validation import check, within_bound
from repro.campaigns import CampaignRunner, get
from repro.campaigns import runner as runner_module
from repro.core.endtoend import EndToEndAnalysis
from repro.fuzz import evaluate_scenario
from repro.fuzz import campaign as fuzz_module

GRAPHS = ("graph-diamond", "graph-ring", "graph-star", "graph-random")


@pytest.fixture(scope="module")
def evaluated():
    """Each graph scenario's memoized, naive and ``--engine all`` runs."""
    scenarios = [get(name) for name in GRAPHS]
    return {mode: {result.scenario.name: result
                   for result in runner.run(scenarios).results}
            for mode, runner in (
                ("memoized", CampaignRunner()),
                ("naive", CampaignRunner(memoize=False)),
                ("all", CampaignRunner(engines="all")))}


def _cells():
    return [(name, policy) for name in GRAPHS
            for policy in get(name).policies]


@pytest.mark.parametrize("name,policy", _cells())
class TestRowsAreTheSystemVerdict:
    def test_rows_equal_the_network_bounds(self, evaluated, name, policy):
        verdict = CalculusEngine().network_bounds(
            scenario_inputs(get(name)), policy)
        rows = evaluated["memoized"][name].rows_for(policy)
        assert [row.priority for row in rows] == sorted(verdict.classes)
        for row in rows:
            assert row.bound == verdict.classes[row.priority]
            assert row.backlog_bits == verdict.backlogs[row.priority]

    def test_engine_table_calculus_rows_equal_the_rows(self, evaluated,
                                                       name, policy):
        rows = {row.priority: row.bound
                for row in evaluated["all"][name].rows_for(policy)}
        calculus = {row.priority: row.bound
                    for row in evaluated["all"][name].engine_rows
                    if row.engine == "calculus" and row.policy == policy}
        assert calculus == rows

    def test_memoized_rows_equal_naive_rows(self, evaluated, name, policy):
        assert evaluated["memoized"][name].rows_for(policy) == \
            evaluated["naive"][name].rows_for(policy)

    def test_rows_dominate_the_synchronized_simulation(self, evaluated,
                                                       name, policy):
        worst = {row.priority: row.simulated_worst
                 for row in check(scenario_inputs(get(name)), policy).rows}
        rows = evaluated["memoized"][name].rows_for(policy)
        assert worst and set(worst) <= {row.priority for row in rows}
        for row in rows:
            if row.priority in worst:
                assert within_bound(worst[row.priority], row.bound), (
                    row, worst[row.priority])


@pytest.fixture
def analyses(monkeypatch):
    """Count ``EndToEndAnalysis.solve`` calls: the fixed point that both
    the calculus engine and ``analyze`` run once per evaluation."""
    calls = []
    original = EndToEndAnalysis.solve

    def counting(self, template):
        calls.append(self.policy)
        return original(self, template)

    monkeypatch.setattr(EndToEndAnalysis, "solve", counting)
    return calls


class TestOneEvaluationPerLowering:
    def test_a_two_policy_fuzz_cell_analyses_four_times(self, analyses):
        # Twice per measurement (one lowering, two policies) and two
        # measurements: the memoized one and the fresh naive one.
        scenario = get("graph-diamond")
        assert len(scenario.policies) == 2
        outcome = evaluate_scenario(scenario, duration=units.ms(20))
        assert outcome.holds
        assert len(analyses) == 4

    def test_the_engine_table_analyses_once_per_policy(self, analyses):
        scenario = get("graph-diamond")
        CampaignRunner(engines="all").run([scenario])
        assert sorted(analyses) == sorted(scenario.policies)


@pytest.fixture
def lowerings(monkeypatch):
    """Weak references to every lowering the runner builds."""
    refs = []

    def tracked(scenario, *args, **kwargs):
        inputs = scenario_inputs(scenario, *args, **kwargs)
        refs.append(weakref.ref(inputs))
        return inputs

    monkeypatch.setattr(runner_module, "scenario_inputs", tracked)
    return refs


class TestFinishedLoweringsAreCollectable:
    def test_a_campaign_keeps_no_lowering(self, lowerings):
        runner = CampaignRunner(engines="all")
        runner.run([get(name) for name in GRAPHS])
        assert len(lowerings) == len(GRAPHS)
        gc.collect()
        assert all(ref() is None for ref in lowerings)

    def test_a_long_lived_fuzz_worker_keeps_no_lowering(self, lowerings):
        fuzz_module._init_worker()
        for name in ("graph-diamond", "graph-ring"):
            evaluate_scenario(get(name), duration=units.ms(20))
        assert len(lowerings) == 4
        gc.collect()
        assert all(ref() is None for ref in lowerings)
