"""The kernel rewrite must be bit-identical to the reference engine.

Every cell of the golden grid (policies × release scenarios on the small
and paper workloads, plus a drop-forcing cell) is re-simulated and compared
against the digests captured from the pre-rewrite engine: same per-flow
latency samples (order included), same drop counts, same link utilizations
and queue maxima, same number of processed events.  Any optimisation that
changes an event interleaving — and therefore possibly a latency — fails
here instead of silently skewing the bound-vs-simulation exhibits.
"""

from __future__ import annotations

import json

import pytest

from tests.simulation.golden_fixture import (
    GOLDEN_CELLS,
    GRAPH_GOLDEN_CELLS,
    capture_cell,
    capture_graph_cell,
    cell_path,
)


@pytest.mark.parametrize(
    "name,stations,workload_seed,policy,scenario,seed,capacity,shaping",
    GOLDEN_CELLS, ids=[cell[0] for cell in GOLDEN_CELLS])
def test_golden_cell_matches_reference(name, stations, workload_seed, policy,
                                       scenario, seed, capacity, shaping):
    expected = json.loads(cell_path(name).read_text())
    actual = capture_cell(stations, workload_seed, policy, scenario, seed,
                          capacity, shaping)
    # Compare piecewise for actionable failure messages before the full
    # dict equality (which also guards any key added later).
    assert actual["events_processed"] == expected["events_processed"]
    assert actual["instances_sent"] == expected["instances_sent"]
    assert actual["instances_delivered"] == expected["instances_delivered"]
    assert actual["frames_dropped"] == expected["frames_dropped"]
    assert actual["link_utilization"] == expected["link_utilization"]
    assert actual["max_queue_bits"] == expected["max_queue_bits"]
    for flow, digest in expected["flows"].items():
        assert actual["flows"][flow] == digest, f"flow {flow} diverged"
    assert actual == expected


def test_drop_cell_actually_drops():
    """The fixture grid must keep exercising the drop-accounting path."""
    expected = json.loads(cell_path("small-fcfs-drops").read_text())
    assert expected["frames_dropped"] > 0


def test_priority_drop_cell_actually_drops():
    """Bounded strict-priority lanes keep the general queue path."""
    expected = json.loads(cell_path("small-priority-drops").read_text())
    assert expected["frames_dropped"] > 0


@pytest.mark.parametrize(
    "name,stations,workload_seed,policy,scenario,seed,capacity,shaping",
    GOLDEN_CELLS, ids=[cell[0] for cell in GOLDEN_CELLS])
def test_traced_cell_matches_untraced(name, stations, workload_seed, policy,
                                      scenario, seed, capacity, shaping):
    """Tracing keeps the general queue path at every hop, so the traced
    run is the reference every untraced fast path must reproduce."""
    untraced = capture_cell(stations, workload_seed, policy, scenario, seed,
                            capacity, shaping)
    traced = capture_cell(stations, workload_seed, policy, scenario, seed,
                          capacity, shaping, trace_enabled=True)
    assert traced == untraced


@pytest.mark.parametrize(
    "name,family,stations,workload_seed,policy,scenario,seed",
    GRAPH_GOLDEN_CELLS, ids=[cell[0] for cell in GRAPH_GOLDEN_CELLS])
def test_traced_graph_cell_matches_untraced(name, family, stations,
                                            workload_seed, policy, scenario,
                                            seed):
    """Multi-hop cells take the same fast paths as the star cells."""
    untraced = capture_graph_cell(family, stations, workload_seed, policy,
                                  scenario, seed)
    traced = capture_graph_cell(family, stations, workload_seed, policy,
                                scenario, seed, trace_enabled=True)
    assert traced == untraced


@pytest.mark.parametrize(
    "name,family,stations,workload_seed,policy,scenario,seed",
    GRAPH_GOLDEN_CELLS, ids=[cell[0] for cell in GRAPH_GOLDEN_CELLS])
def test_graph_golden_cell_matches_reference(name, family, stations,
                                             workload_seed, policy,
                                             scenario, seed):
    """Multi-hop graph topologies replay their committed digests exactly."""
    expected = json.loads(cell_path(name).read_text())
    actual = capture_graph_cell(family, stations, workload_seed, policy,
                                scenario, seed)
    assert actual["events_processed"] == expected["events_processed"]
    assert actual["max_queue_bits"] == expected["max_queue_bits"]
    for flow, digest in expected["flows"].items():
        assert actual["flows"][flow] == digest, f"flow {flow} diverged"
    assert actual == expected


@pytest.mark.parametrize(
    "legacy_name,stations,workload_seed,policy,scenario,seed",
    [("small-fcfs-synchronized", 8, 3, "fcfs", "synchronized", 1),
     ("small-priority-random", 8, 3, "strict-priority", "random", 1),
     ("paper-fcfs-synchronized", 16, 7, "fcfs", "synchronized", 1)],
    ids=["small-fcfs", "small-priority", "paper-fcfs"])
def test_star_as_graph_is_bit_identical_to_legacy(legacy_name, stations,
                                                  workload_seed, policy,
                                                  scenario, seed):
    """The graph ``star`` family reproduces the *legacy* golden files.

    The star expressed as a :class:`GraphTopologySpec` converts to the
    very network the legacy builder produces, so its simulation digest
    must match the committed legacy fixture bit for bit — same latency
    sample hashes, same queue maxima, same event count.
    """
    expected = json.loads(cell_path(legacy_name).read_text())
    actual = capture_graph_cell("star", stations, workload_seed, policy,
                                scenario, seed)
    assert actual == expected
