"""The bound-engine registry and its cross-engine validation wall.

Three independent WCRT backends live behind one ``BoundEngine`` API;
these tests pin the registry semantics, the calculus engine's
byte-identity with the pre-engine analysis paths, and — over the whole
committed fuzz corpus — that every engine's bound dominates the
simulated worst case.
"""

import math

import pytest

from repro.analysis.engines import (
    DEFAULT_ENGINE,
    DEFAULT_ENGINES,
    ENGINE_CHOICES,
    CalculusEngine,
    EngineResult,
    EngineSpec,
    all_engines,
    engine_names,
    get_engine,
    register_engine,
    resolve_engines,
)
from repro.analysis.engines.calculus import scenario_rows
from repro.campaigns import CampaignRunner, get as get_scenario
from repro.core.multiplexer import aggregate_flows
from repro.errors import (
    ConfigurationError,
    DuplicateEngineError,
    UnknownEngineError,
)
from repro.flows.priorities import PriorityClass
from repro.fuzz import load_entries
from repro.fuzz.campaign import evaluate_scenario

ENTRIES = load_entries()
ALL_ENGINES = tuple(engine_names())


class TestRegistry:
    def test_the_three_shipped_engines_are_registered(self):
        assert engine_names() == ["calculus", "holistic", "trajectory"]
        assert [engine.name for engine in all_engines()] == engine_names()

    def test_default_engine_is_the_papers(self):
        assert DEFAULT_ENGINE == "calculus"
        assert DEFAULT_ENGINES == ("calculus",)

    def test_get_engine_returns_the_registered_instance(self):
        assert isinstance(get_engine("calculus"), CalculusEngine)

    def test_unknown_engine_raises_a_configuration_error(self):
        with pytest.raises(UnknownEngineError, match="unknown engine"):
            get_engine("bogus")
        assert issubclass(UnknownEngineError, ConfigurationError)

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(DuplicateEngineError):
            register_engine(CalculusEngine())

    def test_engine_choices_cover_the_registry_plus_all(self):
        assert ENGINE_CHOICES == ("calculus", "holistic", "trajectory",
                                  "all")

    def test_engine_spec_resolves_through_the_registry(self):
        assert EngineSpec("holistic").resolve() is get_engine("holistic")
        with pytest.raises(UnknownEngineError):
            EngineSpec("bogus").resolve()


class TestResolveEngines:
    def test_none_and_empty_mean_the_default(self):
        assert resolve_engines(None) == DEFAULT_ENGINES
        assert resolve_engines("") == DEFAULT_ENGINES
        assert resolve_engines([]) == DEFAULT_ENGINES

    def test_all_selects_every_registered_engine(self):
        assert resolve_engines("all") == ALL_ENGINES

    def test_comma_lists_dedupe_and_keep_order(self):
        assert resolve_engines("holistic, calculus,holistic") == \
            ("holistic", "calculus")
        assert resolve_engines(["trajectory", "trajectory"]) == \
            ("trajectory",)

    def test_all_cannot_be_combined_with_names(self):
        with pytest.raises(UnknownEngineError, match="'all'"):
            resolve_engines("all,calculus")

    def test_unknown_names_are_rejected(self):
        with pytest.raises(UnknownEngineError):
            resolve_engines("calculus,bogus")


class TestEngineResult:
    def test_payload_round_trip_and_fingerprint_stability(self):
        result = EngineResult.from_mapping(
            "holistic", "fcfs", {PriorityClass.URGENT: 1e-3,
                                 PriorityClass.BACKGROUND: math.inf})
        clone = EngineResult.from_payload(result.to_payload())
        assert clone == result
        assert clone.fingerprint() == result.fingerprint()

    def test_stability_flags_follow_finiteness(self):
        result = EngineResult.from_mapping(
            "trajectory", "strict-priority",
            {PriorityClass.URGENT: 2e-3, PriorityClass.PERIODIC: math.inf})
        assert result.stable_by_class() == {PriorityClass.URGENT: True,
                                            PriorityClass.PERIODIC: False}
        assert not result.stable


class TestCalculusByteIdentity:
    """The calculus engine wraps — not reimplements — the paper's math."""

    # dual-switch and tree-federated exercise the (hops - 1) latency
    # term, overload the unstable rows, and the graph-* names the routed
    # per-class rows.
    @pytest.mark.parametrize("name", ["paper-real-case", "dual-switch",
                                      "tree-federated", "overload",
                                      "graph-diamond", "graph-ring",
                                      "graph-star"])
    def test_scenario_bounds_match_the_campaign_rows(self, name):
        scenario = get_scenario(name)
        result = CampaignRunner().run([scenario]).results[0]
        engine = get_engine("calculus")
        for policy in scenario.policies:
            rows = {row.priority: row for row in result.rows_for(policy)}
            engine_result = engine.class_bounds(scenario, policy)
            bounds = engine_result.by_class()
            assert set(bounds) == set(rows)
            for cls, bound in bounds.items():
                assert bound == rows[cls].bound  # bit-identical, no approx
            assert engine_result.stable_by_class() == {
                cls: row.stable for cls, row in rows.items()}

    def test_closed_form_never_asks_for_the_messages(self):
        scenario = get_scenario("dual-switch")
        messages = scenario.workload.build().messages

        def no_messages():
            raise AssertionError("the closed form materialised messages")

        rows = scenario_rows(scenario, "fcfs", aggregate_flows(messages),
                             no_messages)
        assert rows and all(math.isfinite(bound) for bound, _ in rows.values())

    def test_engine_results_fingerprint_deterministically(self):
        scenario = get_scenario("paper-real-case")
        engine = get_engine("calculus")
        first = engine.class_bounds(scenario, "strict-priority")
        second = engine.class_bounds(scenario, "strict-priority")
        assert first.fingerprint() == second.fingerprint()


class TestCorpusCrossValidation:
    """Replay the whole committed corpus under every engine."""

    @pytest.mark.parametrize("entry", ENTRIES,
                             ids=[e.filename for e in ENTRIES])
    def test_every_engine_dominates_the_simulated_floor(self, entry):
        outcome = evaluate_scenario(entry.scenario, duration=entry.duration,
                                    sim_seed=entry.sim_seed, engines="all")
        assert not outcome.violations
        assert outcome.bound_rows, "replay produced no floor measurements"
        for row in outcome.bound_rows:  # the calculus floor
            assert row.bound_holds
        covered = {row.engine for row in outcome.engine_rows}
        assert covered == set(ALL_ENGINES) - {DEFAULT_ENGINE}
        for row in outcome.engine_rows:
            assert row.bound_holds, (
                f"{row.engine} bound {row.bound} below simulated worst "
                f"{row.worst_simulated} ({row.policy}/{row.priority.name})")


class TestFixedPointTermination:
    """Overload must terminate with an instability flag, never hang."""

    @pytest.mark.parametrize("engine_name", ["holistic", "trajectory"])
    @pytest.mark.parametrize("scenario_name", ["overload", "high-jitter",
                                               "scalability-x8"])
    def test_bounds_are_finite_or_flagged(self, engine_name, scenario_name):
        scenario = get_scenario(scenario_name)
        engine = get_engine(engine_name)
        for policy in scenario.policies:
            result = engine.class_bounds(scenario, policy)
            assert result.bounds, "engine returned no classes"
            for row in result.bounds:
                assert row.stable == math.isfinite(row.bound)
                assert math.isfinite(row.bound) or row.bound == math.inf

    @pytest.mark.parametrize("engine_name", ["calculus", "holistic",
                                             "trajectory"])
    def test_saturated_port_is_flagged_unstable(self, engine_name):
        """A genuinely overloaded egress port (every flow converging on
        one sink at > link rate) must yield inf bounds with the stability
        flag cleared — terminating, not iterating forever."""
        from repro import Message, units
        from repro.analysis.engines.base import EngineResult
        from repro.analysis.validation import star_for_stations

        messages = [
            Message.periodic(f"m{i}", period=units.ms(10), size=8000,
                             source=f"src-{i}", destination="sink")
            for i in range(20)]  # 20 x 6.4 Mbps >> the 10 Mbps egress
        network = star_for_stations(
            [f"src-{i}" for i in range(20)] + ["sink"],
            capacity=units.mbps(10), technology_delay=units.us(16))
        engine = get_engine(engine_name)
        for policy in ("fcfs", "strict-priority"):
            mapping = engine.network_class_bounds(messages, policy,
                                                  network=network)
            result = EngineResult.from_mapping(engine.name, policy, mapping)
            assert result.bounds
            for row in result.bounds:
                assert row.bound == math.inf
                assert row.stable is False

    @pytest.mark.parametrize("engine_name", ["holistic", "trajectory"])
    def test_star_bounds_never_undercut_calculus(self, engine_name):
        """Per-hop dominance: on the same single-switch network the
        alternative engines pay at least the calculus delay per class."""
        from repro.analysis.engines.base import scenario_inputs

        for name in ("paper-real-case", "scalability-x2"):
            scenario = get_scenario(name)
            wire, network, graph_spec = scenario_inputs(scenario)
            for policy in scenario.policies:
                reference = get_engine("calculus").network_class_bounds(
                    wire, policy, network=network, graph_spec=graph_spec)
                bounds = get_engine(engine_name).network_class_bounds(
                    wire, policy, network=network, graph_spec=graph_spec)
                for cls, bound in bounds.items():
                    assert bound >= reference[cls] - 1e-12
