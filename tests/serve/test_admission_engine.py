"""The incremental admission-control engine."""

import math

import pytest

from repro import units
from repro.campaigns import CampaignRunner, get as get_scenario
from repro.campaigns.scenario import Scenario, TopologySpec, WorkloadSpec
from repro.errors import ConfigurationError
from repro.serve import (
    AdmissionEngine,
    message_from_payload,
    message_to_payload,
)
from repro.store import ResultStore


def star_scenario(stations=6, seed=3, capacity_mbps=10.0,
                  policies=("fcfs", "strict-priority")):
    return Scenario(name="serve-star", description="engine test scenario",
                    workload=WorkloadSpec(station_count=stations, seed=seed),
                    topology=TopologySpec("single-switch-star"),
                    capacity=units.mbps(capacity_mbps),
                    technology_delay=units.us(16.0),
                    policies=policies)


def graph_scenario(stations=6, seed=3):
    return Scenario(name="serve-graph", description="engine graph scenario",
                    workload=WorkloadSpec(station_count=stations, seed=seed),
                    topology=TopologySpec(kind="graph",
                                          graph_family="diamond",
                                          graph_switches=4,
                                          graph_seed=0,
                                          graph_extra_links=0),
                    capacity=units.mbps(10.0),
                    technology_delay=units.us(16.0),
                    policies=("strict-priority",))


def probe(name="probe-1", **overrides):
    payload = {"name": name, "kind": "sporadic", "period": 1.0,
               "size": 100.0, "source": "station-00",
               "destination": "station-01", "deadline": None}
    payload.update(overrides)
    return payload


class TestPayloadRoundTrip:
    def test_round_trip_is_identity(self):
        message = message_from_payload(probe(deadline=0.02))
        assert message_from_payload(message_to_payload(message)) == message

    def test_int_numerics_are_canonicalised_to_float(self):
        """A freshly built workload carries int sizes; the payload must
        fingerprint identically after a JSON round trip."""
        payload = message_to_payload(message_from_payload(
            probe(period=1, size=304)))
        assert isinstance(payload["period"], float)
        assert isinstance(payload["size"], float)

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown flow field"):
            message_from_payload(probe(priority=3))

    def test_missing_field_is_rejected(self):
        payload = probe()
        del payload["period"]
        with pytest.raises(ConfigurationError, match="missing field"):
            message_from_payload(payload)

    def test_bad_kind_is_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            message_from_payload(probe(kind="continuous"))

    def test_non_object_is_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            message_from_payload([1, 2, 3])

    def test_bad_values_are_rejected(self):
        with pytest.raises(ConfigurationError, match="period must be"):
            message_from_payload(probe(period=0.0))

    def test_kind_defaults_to_sporadic(self):
        payload = probe()
        del payload["kind"]
        assert message_from_payload(payload).kind.value == "sporadic"


class TestEngineConstruction:
    def test_preload_loads_the_workload(self):
        scenario = star_scenario()
        engine = AdmissionEngine(scenario, "strict-priority")
        expected = len(scenario.workload.build().messages)
        assert engine.snapshot().flow_count == expected
        assert len(engine.flow_names()) == expected

    def test_default_policy_is_the_scenarios_first(self):
        engine = AdmissionEngine(star_scenario())
        assert engine.policy == "fcfs"

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ConfigurationError, match="policy"):
            AdmissionEngine(star_scenario(), "wfq")

    def test_replicated_workload_is_rejected(self):
        scenario = Scenario(
            name="replicated", description="replicated workload",
            workload=WorkloadSpec(station_count=4, replication=2))
        with pytest.raises(ConfigurationError, match="replication"):
            AdmissionEngine(scenario)


class TestAdmissionSemantics:
    def test_feasible_admit_commits(self):
        engine = AdmissionEngine(star_scenario(), "strict-priority")
        before = engine.snapshot().flow_count
        decision = engine.admit(probe())
        assert decision.applied
        assert engine.snapshot().flow_count == before + 1
        assert "probe-1" in engine.flow_names()

    def test_duplicate_name_is_rejected(self):
        engine = AdmissionEngine(star_scenario(), "strict-priority")
        assert engine.admit(probe()).applied
        decision = engine.admit(probe())
        assert not decision.applied
        assert "already admitted" in decision.reasons[0]

    def test_infeasible_admit_leaves_committed_state_untouched(self):
        # Under FCFS the paper's workload is already near its URGENT
        # deadline; a heavy urgent flow breaks it.
        engine = AdmissionEngine(star_scenario(stations=16, seed=7), "fcfs")
        state_before = engine.state_fingerprint()
        bounds_before = engine.snapshot().bounds_fingerprint()
        decision = engine.admit(probe(period=0.002, size=8000.0,
                                      deadline=0.002))
        assert not decision.applied
        assert decision.reasons
        assert engine.state_fingerprint() == state_before
        assert engine.snapshot().bounds_fingerprint() == bounds_before

    def test_force_admit_commits_and_still_reports_violations(self):
        engine = AdmissionEngine(star_scenario(stations=16, seed=7), "fcfs")
        decision = engine.admit(probe(period=0.002, size=8000.0,
                                      deadline=0.002), force=True)
        assert decision.applied
        assert decision.reasons
        assert "probe-1" in engine.flow_names()
        assert engine.verify()

    def test_remove_unknown_flow_is_reported(self):
        engine = AdmissionEngine(star_scenario(), "strict-priority")
        decision = engine.remove("no-such-flow")
        assert not decision.applied
        assert "not admitted" in decision.reasons[0]

    def test_check_without_flow_returns_committed_snapshot(self):
        engine = AdmissionEngine(star_scenario(), "strict-priority")
        decision = engine.check()
        assert decision.operation == "check"
        assert decision.snapshot is engine.snapshot()

    def test_what_if_check_never_mutates(self):
        engine = AdmissionEngine(star_scenario(), "strict-priority")
        state = engine.state_fingerprint()
        hypothetical = engine.check(probe())
        assert hypothetical.snapshot.flow_count == \
            engine.snapshot().flow_count + 1
        assert engine.state_fingerprint() == state
        assert "probe-1" not in engine.flow_names()


class TestBitIdentity:
    """The headline invariant: incremental == from-scratch, bit for bit."""

    def test_verify_after_a_mutation_storm(self):
        engine = AdmissionEngine(star_scenario(stations=8, seed=5),
                                 "strict-priority")
        for index in range(12):
            engine.admit(probe(f"storm-{index}", period=0.5 + index * 0.125,
                               size=200.0 + 8.0 * index), force=True)
            assert engine.verify()
        for index in range(0, 12, 2):
            assert engine.remove(f"storm-{index}").applied
            assert engine.verify()

    def test_admit_uses_the_incremental_path_on_star(self):
        engine = AdmissionEngine(star_scenario(), "strict-priority")
        before = engine.incremental_hits
        engine.admit(probe())
        assert engine.incremental_hits == before + 1

    def test_snapshot_modes_are_labelled(self):
        engine = AdmissionEngine(star_scenario(), "strict-priority")
        assert engine.snapshot().mode == "recompute"  # initial load
        engine.admit(probe())
        assert engine.snapshot().mode == "incremental"

    def test_mode_does_not_change_the_bounds_fingerprint(self):
        engine = AdmissionEngine(star_scenario(), "strict-priority")
        engine.admit(probe())
        committed = engine.snapshot()
        fresh = engine._derive_snapshot(
            engine._classes, list(engine._flows.values()), "recompute",
            engine.state_fingerprint())
        assert fresh.mode != committed.mode
        assert fresh.bounds_fingerprint() == committed.bounds_fingerprint()

    def test_unstable_overload_is_reported_not_crashed(self):
        engine = AdmissionEngine(star_scenario(stations=20, seed=1,
                                               capacity_mbps=0.2), "fcfs")
        snapshot = engine.snapshot()
        assert not snapshot.feasible
        assert any(not bound.stable for bound in snapshot.classes)
        assert any(math.isinf(bound.bound) for bound in snapshot.classes)
        assert engine.verify()


class TestCampaignRowIdentity:
    """A preloaded engine reports exactly the campaign runner's rows."""

    @pytest.mark.parametrize("name", ["paper-real-case", "dual-switch",
                                      "tree-federated", "graph-diamond"])
    @pytest.mark.parametrize("policy", ["fcfs", "strict-priority"])
    def test_preloaded_bounds_equal_the_campaign_rows(self, name, policy):
        scenario = get_scenario(name)
        result = CampaignRunner().run([scenario]).results[0]
        expected = [(row.priority, row.bound, row.backlog_bits, row.stable)
                    for row in result.rows_for(policy)]
        snapshot = AdmissionEngine(scenario, policy).snapshot()
        assert [(bound.priority, bound.bound, bound.backlog_bits,
                 bound.stable) for bound in snapshot.classes] == expected


class TestStoreCache:
    def test_restarted_engine_warm_hits_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = star_scenario()
        AdmissionEngine(scenario, "strict-priority", store)
        writes = store.stats.writes
        assert writes >= 1
        hits_before = store.stats.hits
        second = AdmissionEngine(scenario, "strict-priority", store)
        assert store.stats.hits > hits_before
        assert store.stats.writes == writes  # nothing recomputed
        assert second.verify()

    def test_cached_and_computed_snapshots_are_identical(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = star_scenario()
        cold = AdmissionEngine(scenario, "strict-priority", store)
        warm = AdmissionEngine(scenario, "strict-priority", store)
        assert cold.snapshot().to_payload() == warm.snapshot().to_payload()
        bare = AdmissionEngine(scenario, "strict-priority")
        assert bare.snapshot().bounds_fingerprint() == \
            cold.snapshot().bounds_fingerprint()


class TestGraphFallback:
    def test_graph_engine_full_recomputes(self):
        engine = AdmissionEngine(graph_scenario())
        assert engine.snapshot().mode == "recompute"
        before = engine.full_recomputes
        decision = engine.admit(probe(), force=True)
        assert decision.applied
        assert engine.full_recomputes > before
        assert engine.incremental_hits == 0
        assert engine.verify()

    def test_graph_admit_then_remove_restores_fingerprints(self):
        engine = AdmissionEngine(graph_scenario())
        state = engine.state_fingerprint()
        bounds = engine.snapshot().bounds_fingerprint()
        assert engine.admit(probe(), force=True).applied
        assert engine.remove("probe-1").applied
        assert engine.state_fingerprint() == state
        assert engine.snapshot().bounds_fingerprint() == bounds

    def test_unknown_station_is_a_configuration_error(self):
        engine = AdmissionEngine(graph_scenario())
        state = engine.state_fingerprint()
        with pytest.raises(ConfigurationError):
            engine.admit(probe(source="no-such-node"), force=True)
        # The tentative derivation raised before any commit.
        assert engine.state_fingerprint() == state
        assert engine.verify()


class TestReplay:
    def test_replay_equals_direct_mutations(self):
        scenario = star_scenario()
        direct = AdmissionEngine(scenario, "strict-priority")
        direct.admit(probe("replayed-1"), force=True)
        direct.admit(probe("replayed-2", size=200.0), force=True)
        direct.remove("replayed-1")

        recovered = AdmissionEngine(scenario, "strict-priority",
                                    preload=False)
        base = AdmissionEngine(scenario, "strict-priority")
        recovered.replay(
            [{"op": "admit", "flow": payload}
             for payload in base.flow_payloads()]
            + [{"op": "admit", "flow": probe("replayed-1")},
               {"op": "admit", "flow": probe("replayed-2", size=200.0)},
               {"op": "remove", "name": "replayed-1"}])
        assert recovered.state_fingerprint() == direct.state_fingerprint()
        assert recovered.snapshot().bounds_fingerprint() == \
            direct.snapshot().bounds_fingerprint()
        assert recovered.verify()

    def test_replay_ignores_removes_of_absent_flows(self):
        engine = AdmissionEngine(star_scenario(), "strict-priority",
                                 preload=False)
        engine.replay([{"op": "remove", "name": "never-admitted"}])
        assert engine.snapshot().flow_count == 0

    def test_replay_rejects_unknown_operations(self):
        engine = AdmissionEngine(star_scenario(), "strict-priority",
                                 preload=False)
        with pytest.raises(ConfigurationError, match="unknown journal"):
            engine.replay([{"op": "upsert", "name": "x"}])
