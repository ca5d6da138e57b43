"""Golden fixtures proving the kernel rewrite is behavior-preserving.

The fast simulation kernel must be *bit-identical* to the original
reference implementation: for a fixed seed, the same per-flow latency
samples, drop counts and link utilizations, in the same order.  This
module defines the fixture grid (policies × release scenarios, plus a
drop-forcing cell) and the digest format; the JSON files under
``tests/simulation/golden/`` were captured from the pre-rewrite engine
and are asserted by ``test_golden_equivalence.py``.

To regenerate after an *intentional* behavior change (document it!)::

    PYTHONPATH=src python tests/simulation/golden_fixture.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro import units
from repro.analysis.validation import star_for_stations
from repro.ethernet.network_sim import EthernetNetworkSimulator
from repro.topology.graph import (
    diamond_graph_spec,
    random_graph_spec,
    ring_graph_spec,
    star_graph_spec,
)
from repro.workloads import RealCaseParameters, generate_real_case

__all__ = ["GOLDEN_DIR", "GOLDEN_CELLS", "GRAPH_GOLDEN_CELLS",
           "capture_cell", "capture_graph_cell", "cell_path", "graph_spec"]

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The fixture grid: (name, station_count, workload_seed, policy, scenario,
#: simulation_seed, queue_capacity_bits, shaping_enabled).
GOLDEN_CELLS = (
    ("small-fcfs-synchronized", 8, 3, "fcfs", "synchronized", 1, None, True),
    ("small-fcfs-staggered", 8, 3, "fcfs", "staggered", 1, None, True),
    ("small-fcfs-random", 8, 3, "fcfs", "random", 1, None, True),
    ("small-priority-synchronized", 8, 3, "strict-priority", "synchronized",
     1, None, True),
    ("small-priority-staggered", 8, 3, "strict-priority", "staggered",
     1, None, True),
    ("small-priority-random", 8, 3, "strict-priority", "random", 1, None,
     True),
    # The paper's 16-station case study, the bound-vs-sim workload.
    ("paper-fcfs-synchronized", 16, 7, "fcfs", "synchronized", 1, None, True),
    ("paper-priority-synchronized", 16, 7, "strict-priority", "synchronized",
     1, None, True),
    # The paper case under random releases, the cell type of the Monte-Carlo
    # campaigns (untied releases take the kernel's same-instant slot).
    ("paper-fcfs-random", 16, 7, "fcfs", "random", 1, None, True),
    ("paper-priority-random", 16, 7, "strict-priority", "random", 1, None,
     True),
    # Unshaped traffic into tiny buffers: exercises the drop accounting.
    ("small-fcfs-drops", 8, 3, "fcfs", "synchronized", 1, 2_000.0, False),
    ("small-priority-drops", 8, 3, "strict-priority", "synchronized", 1,
     2_000.0, False),
)

#: Multi-hop graph fixture grid: (name, family, station_count,
#: workload_seed, policy, scenario, simulation_seed).  The ``star`` family
#: is deliberately absent — its network is *identical* to the legacy star,
#: which ``test_golden_equivalence.py`` asserts against the legacy files.
GRAPH_GOLDEN_CELLS = (
    ("graph-diamond-fcfs", "diamond", 8, 3, "fcfs", "synchronized", 1),
    ("graph-diamond-priority", "diamond", 8, 3, "strict-priority",
     "synchronized", 1),
    ("graph-ring-fcfs", "ring", 8, 3, "fcfs", "synchronized", 1),
    ("graph-random-priority", "random", 8, 3, "strict-priority",
     "synchronized", 1),
)


def graph_spec(family: str, station_count: int):
    """The deterministic graph spec of one golden family."""
    if family == "star":
        return star_graph_spec(station_count)
    if family == "diamond":
        return diamond_graph_spec(station_count)
    if family == "ring":
        return ring_graph_spec(station_count, switch_count=4)
    return random_graph_spec(station_count, switch_count=4, seed=11)


def cell_path(name: str) -> Path:
    """Fixture file of one golden cell."""
    return GOLDEN_DIR / f"{name}.json"


def _digest(values) -> str:
    """SHA-256 over the exact reprs of a float sequence (order included)."""
    joined = ",".join(repr(float(value)) for value in values)
    return hashlib.sha256(joined.encode("ascii")).hexdigest()


def capture_cell(station_count: int, workload_seed: int, policy: str,
                 scenario: str, seed: int, queue_capacity: float | None,
                 shaping_enabled: bool, trace_enabled: bool = False) -> dict:
    """Run one simulation cell and distill it into a comparable digest.

    Per flow the digest keeps the sample count, the SHA-256 of the ordered
    sample reprs (bit-exact, compact) and the repr of the worst sample
    (readable when a mismatch needs debugging); drops, delivery counters,
    per-link utilizations, queue maxima and the processed-event count are
    stored in full.  ``trace_enabled`` runs the traced model, which takes
    the general queue path at every hop.
    """
    message_set = generate_real_case(
        RealCaseParameters(station_count=station_count), seed=workload_seed)
    network = star_for_stations(message_set.stations(), units.mbps(10),
                                units.us(16))
    return _capture_network(network, message_set, policy, scenario, seed,
                            queue_capacity, shaping_enabled, trace_enabled)


def capture_graph_cell(family: str, station_count: int, workload_seed: int,
                       policy: str, scenario: str, seed: int,
                       trace_enabled: bool = False) -> dict:
    """Run one golden cell on a multi-hop graph family's routed network."""
    message_set = generate_real_case(
        RealCaseParameters(station_count=station_count), seed=workload_seed)
    network = graph_spec(family, station_count).to_network()
    return _capture_network(network, message_set, policy, scenario, seed,
                            None, True, trace_enabled)


def _capture_network(network, message_set, policy, scenario, seed,
                     queue_capacity, shaping_enabled, trace_enabled) -> dict:
    simulator = EthernetNetworkSimulator(
        network, message_set.messages, policy=policy, scenario=scenario,
        seed=seed, queue_capacity=queue_capacity,
        shaping_enabled=shaping_enabled, trace_enabled=trace_enabled)
    results = simulator.run(duration=units.ms(320))
    flows = {}
    for name in sorted(results.flow_latencies):
        recorder = results.flow_latencies[name]
        samples = recorder.samples
        flows[name] = {
            "count": recorder.count,
            "sha256": _digest(samples),
            "max": repr(max(samples)) if samples else "",
        }
    return {
        "policy": policy,
        "scenario": scenario,
        "flows": flows,
        "instances_sent": results.instances_sent,
        "instances_delivered": results.instances_delivered,
        "frames_dropped": results.frames_dropped,
        "link_utilization": {key: repr(value) for key, value
                             in sorted(results.link_utilization.items())},
        "max_queue_bits": {key: repr(value) for key, value
                           in sorted(results.max_queue_bits.items())},
        "events_processed": simulator.simulator.events_processed,
    }


def regenerate() -> None:
    """Re-capture every golden cell with the *current* engine."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for (name, stations, workload_seed, policy, scenario, seed,
         capacity, shaping) in GOLDEN_CELLS:
        digest = capture_cell(stations, workload_seed, policy, scenario,
                              seed, capacity, shaping)
        cell_path(name).write_text(
            json.dumps(digest, indent=1, sort_keys=True) + "\n")
        print(f"captured {name}: {digest['events_processed']} events, "
              f"{digest['frames_dropped']} drops")
    for (name, family, stations, workload_seed, policy, scenario,
         seed) in GRAPH_GOLDEN_CELLS:
        digest = capture_graph_cell(family, stations, workload_seed,
                                    policy, scenario, seed)
        cell_path(name).write_text(
            json.dumps(digest, indent=1, sort_keys=True) + "\n")
        print(f"captured {name}: {digest['events_processed']} events, "
              f"{digest['frames_dropped']} drops")


if __name__ == "__main__":
    regenerate()
