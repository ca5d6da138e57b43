"""A finished cell's network model is freed by reference counting.

Link transmitters deliver to the node at their far end and every node
holds the transmitters it sends on, so a finished
:class:`~repro.ethernet.network_sim.EthernetNetworkSimulator` is a web
of reference cycles.  The campaign cells call
:meth:`~repro.ethernet.network_sim.EthernetNetworkSimulator.release`
once they have read the outcome, so the model goes as soon as the cell
returns instead of whenever the cyclic collector next runs.
"""

import contextlib
import gc
import weakref

from repro import units
from repro.analysis.validation import star_for_stations
from repro.ethernet.network_sim import EthernetNetworkSimulator
from repro.fuzz import FuzzCampaign, GeneratorConfig
from repro.simulation.campaign import SimulationCampaign
from repro.workloads import RealCaseParameters, generate_real_case

DURATION = units.ms(40)


@contextlib.contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@contextlib.contextmanager
def watched_stations(monkeypatch):
    """Weak references to one station of every simulator built inside."""
    stations = []
    original = EthernetNetworkSimulator.__init__

    def watching_init(simulator, *args, **kwargs):
        original(simulator, *args, **kwargs)
        stations.append(weakref.ref(next(iter(simulator.stations.values()))))

    monkeypatch.setattr(EthernetNetworkSimulator, "__init__", watching_init)
    yield stations


def _star_run(scenario="random"):
    message_set = generate_real_case(RealCaseParameters(station_count=6),
                                     seed=3)
    simulator = EthernetNetworkSimulator(
        star_for_stations(message_set.stations(), units.mbps(10),
                          units.us(16)), message_set.messages,
        scenario=scenario, seed=2)
    return simulator, simulator.run(duration=DURATION)


def _observed(results) -> str:
    return repr((
        {name: recorder.summary()
         for name, recorder in results.flow_latencies.items()},
        {cls: recorder.summary()
         for cls, recorder in results.class_latencies.items()},
        results.instances_sent, results.instances_delivered,
        results.frames_dropped, results.link_utilization,
        results.max_queue_bits))


class TestRelease:
    def test_a_finished_model_holds_cycles_until_released(self):
        with collector_off():
            simulator, _ = _star_run()
            station = weakref.ref(next(iter(simulator.stations.values())))
            del simulator
            assert station() is not None  # held up by the cycles
            gc.collect()
            assert station() is None
            simulator, _ = _star_run()
            station = weakref.ref(next(iter(simulator.stations.values())))
            simulator.release()
            del simulator
            assert station() is None

    def test_release_leaves_the_results_unchanged(self):
        simulator, results = _star_run()
        before = _observed(results)
        events = simulator.simulator.events_processed
        simulator.release()
        assert _observed(simulator.results) == before
        assert simulator.simulator.events_processed == events


class TestCampaignCells:
    def test_a_simulation_cell_frees_its_model(self, monkeypatch):
        campaign = SimulationCampaign(
            station_count=6, workload_seed=3, seeds=(1,),
            scenarios=("random",), policies=("fcfs",), duration=DURATION)
        with watched_stations(monkeypatch) as stations, collector_off():
            result = campaign.run()
            assert result.cells == 1
            assert len(stations) == 1
            assert stations[0]() is None

    def test_a_fuzz_cell_frees_its_models(self, monkeypatch):
        config = GeneratorConfig(
            station_counts=(4,), replications=(1,),
            topology_kinds=("single-switch-star",), capacities_mbps=(10.0,),
            size_factors=(1.0,))
        campaign = FuzzCampaign(count=1, seed=1, config=config,
                                duration=DURATION)
        with watched_stations(monkeypatch) as stations, collector_off():
            result = campaign.run()
            assert result.cells == 1
            assert stations
            assert all(station() is None for station in stations)
