"""Seed-free scenarios: one simulation stands for every seed of a run.

The synchronized scenario releases every source at ``t = 0`` and runs
sporadic sources greedily, so it never draws from the seed's random
streams.  :class:`~repro.simulation.campaign.SimulationCampaign` relies on
that to simulate each seed-free configuration once per run; these tests
guard the invariant and the campaign's use of it.
"""

import pytest

from repro import units
from repro.analysis.validation import star_for_stations
from repro.campaigns.scenario import TopologySpec
from repro.ethernet.network_sim import (SEED_FREE_SCENARIOS,
                                        EthernetNetworkSimulator)
from repro.simulation.campaign import SCENARIOS, SimulationCampaign
from repro.simulation.randomness import RandomStreams
from repro.store import ResultStore
from repro.workloads import RealCaseParameters, generate_real_case

STATIONS = 6
WORKLOAD_SEED = 3
DURATION = units.ms(40)


@pytest.fixture(scope="module")
def message_set():
    return generate_real_case(RealCaseParameters(station_count=STATIONS),
                              seed=WORKLOAD_SEED)


def _network(family: str, message_set):
    if family == "star":
        return star_for_stations(message_set.stations(), units.mbps(10),
                                 units.us(16))
    return TopologySpec(kind="graph", graph_family=family).build_graph(
        STATIONS).to_network()


def _fingerprint(results) -> str:
    """Everything a run observed, as one comparable string."""
    return repr((
        {name: recorder.summary()
         for name, recorder in results.flow_latencies.items()},
        {cls: recorder.summary()
         for cls, recorder in results.class_latencies.items()},
        results.instances_sent, results.instances_delivered,
        results.frames_dropped, results.link_utilization,
        results.max_queue_bits))


def _stream_states(streams: RandomStreams, names) -> dict:
    return {name: repr(streams.stream(name).bit_generator.state)
            for name in names}


def _streams_untouched(simulator) -> bool:
    """Whether every stream the run created is still in its fresh state."""
    names = simulator.streams.names()
    return _stream_states(simulator.streams, names) == _stream_states(
        RandomStreams(simulator.seed), names)


def _run(network, message_set, scenario, policy, seed):
    simulator = EthernetNetworkSimulator(
        network, message_set.messages, policy=policy, scenario=scenario,
        seed=seed)
    return simulator, simulator.run(duration=DURATION)


class TestInvariant:
    @pytest.mark.parametrize("family", ["star", "diamond"])
    @pytest.mark.parametrize("policy", ["fcfs", "strict-priority"])
    @pytest.mark.parametrize("scenario", sorted(SEED_FREE_SCENARIOS))
    def test_run_draws_nothing_and_ignores_the_seed(
            self, message_set, family, policy, scenario):
        network = _network(family, message_set)
        fingerprints = set()
        for seed in (1, 2, 3):
            simulator, results = _run(network, message_set, scenario,
                                      policy, seed)
            assert simulator.streams.names(), "no stream was created"
            assert _streams_untouched(simulator), (
                f"{scenario} drew from the seed's random streams")
            assert results.instances_delivered > 0
            fingerprints.add(_fingerprint(results))
        assert len(fingerprints) == 1

    @pytest.mark.parametrize(
        "scenario", [name for name in SCENARIOS
                     if name not in SEED_FREE_SCENARIOS])
    def test_seeded_scenarios_do_draw(self, message_set, scenario):
        """The state check above would notice a draw."""
        simulator, _ = _run(_network("star", message_set), message_set,
                            scenario, "fcfs", 1)
        assert not _streams_untouched(simulator)


def _campaign(**overrides) -> SimulationCampaign:
    return SimulationCampaign(**{
        "station_count": STATIONS, "workload_seed": WORKLOAD_SEED,
        "seeds": (1, 2, 3), "scenarios": ("synchronized", "random"),
        "duration": DURATION, **overrides})


class TestCampaign:
    def test_seed_free_configurations_simulate_once(self, monkeypatch):
        runs = []
        original = EthernetNetworkSimulator.run

        def counting_run(simulator, *args, **kwargs):
            runs.append((simulator.scenario, simulator.policy))
            return original(simulator, *args, **kwargs)

        monkeypatch.setattr(EthernetNetworkSimulator, "run", counting_run)
        result = _campaign().run()
        assert result.cells == 12
        assert sorted(runs) == sorted(
            [("synchronized", "fcfs"), ("synchronized", "strict-priority")]
            + [("random", "fcfs"), ("random", "strict-priority")] * 3)
        assert [outcome.cell.seed for outcome in result.outcomes
                if outcome.copied] == [2, 3, 2, 3]

    def test_copies_equal_a_direct_run_at_their_own_seed(self, message_set):
        result = _campaign(scenarios=("synchronized",)).run()
        network = star_for_stations(message_set.stations(), units.mbps(10),
                                    units.us(16))
        copies = [outcome for outcome in result.outcomes if outcome.copied]
        assert len(copies) == 4
        for outcome in copies:
            cell = outcome.cell
            simulator, results = _run(network, message_set, cell.scenario,
                                      cell.policy, cell.seed)
            worst = {cls: recorder.maximum
                     for cls, recorder in results.class_latencies.items()
                     if recorder.count}
            mean = {cls: recorder.summary().mean
                    for cls, recorder in results.class_latencies.items()
                    if recorder.count}
            samples = {cls: recorder.count
                       for cls, recorder in results.class_latencies.items()
                       if recorder.count}
            assert repr(outcome.worst_per_class) == repr(worst)
            assert repr(outcome.mean_per_class) == repr(mean)
            assert outcome.samples_per_class == samples
            assert outcome.instances_sent == results.instances_sent
            assert outcome.instances_delivered == results.instances_delivered
            assert outcome.frames_dropped == results.frames_dropped
            assert outcome.events_processed == \
                simulator.simulator.events_processed

    def test_memo_does_not_outlive_a_run(self, monkeypatch):
        campaign = _campaign(scenarios=("synchronized",),
                             policies=("fcfs",))
        campaign.run()
        runs = []
        original = EthernetNetworkSimulator.run

        def counting_run(simulator, *args, **kwargs):
            runs.append(simulator.seed)
            return original(simulator, *args, **kwargs)

        monkeypatch.setattr(EthernetNetworkSimulator, "run", counting_run)
        campaign.run()
        assert runs == [1]

    def test_store_keeps_one_record_per_cell(self, tmp_path):
        store_root = tmp_path / "store"
        cold = _campaign(store=ResultStore(store_root)).run()
        blobs = list((store_root / "objects").glob("*/*.json"))
        assert len(blobs) == cold.cells == 12
        warm = _campaign(store=ResultStore(store_root), resume=True).run()
        assert warm.resumed == warm.cells == 12
        assert not any(outcome.copied for outcome in warm.outcomes)
        assert repr(warm.rows) == repr(cold.rows)
